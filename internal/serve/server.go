// Package serve is the long-running estimation service behind cmd/coestd: a
// small HTTP/JSON front over warm pkg/coest sessions. A session compiles a
// design once (software image, gate netlists, shared macro tables) and keeps
// persistent energy caches, so repeat requests skip synthesis entirely; the
// server coalesces each request's grid points into one batched sweep over a
// bounded worker pool, sheds with 429 and Retry-After when the queue fills,
// bounds request bodies and packet counts before admission, enforces
// per-request deadlines with prompt mid-run cancellation, serializes and
// restores warm sessions as binary snapshots, optionally replicates
// energy-cache warmth through a fleet cache-sync tier, and drains
// gracefully on shutdown. Every 200 answer is the estimate the request
// asked for.
//
// The wire contract lives in pkg/coest/coestapi — one versioned package
// shared by this daemon, the fleet router and the client library.
package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecache"
	"repro/internal/ecachesync"
	"repro/internal/telemetry"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
)

// Service-level metrics, on the process-wide registry so cmd/coestd's debug
// server exports them next to the estimator's own counters.
var (
	mRequests = telemetry.Default.Counter("serve_requests_total", "estimation requests accepted")
	mRejected = telemetry.Default.Counter("serve_rejected_total", "requests rejected with 429 (queue full)")
	mDrained  = telemetry.Default.Counter("serve_drain_rejects_total", "requests rejected with 503 (draining)")
	mPoints   = telemetry.Default.Counter("serve_points_total", "configuration points estimated")
	mWarmHits = telemetry.Default.Counter("serve_warm_hits_total", "requests served by an existing warm session")
	mSessions = telemetry.Default.Counter("serve_sessions_total", "warm sessions compiled")
	gQueue    = telemetry.Default.Gauge("serve_queue_depth", "requests queued, excluding in-flight")
	hLatency  = telemetry.Default.Histogram("serve_request_seconds",
		"request wall time (accepted requests)", telemetry.ExpBuckets(1e-4, 2, 22))
	mErrors = telemetry.Default.Counter("serve_errors_total", "requests that finished with a 5xx status")
	mSlow   = telemetry.Default.Counter("serve_slow_requests_total", "requests slower than the slow-threshold")

	// Fleet-tier metrics: sessions restored from snapshots, snapshots served.
	mRestored  = telemetry.Default.Counter("serve_sessions_restored_total", "warm sessions restored from snapshots")
	mSnapshots = telemetry.Default.Counter("serve_snapshots_total", "session snapshots served")

	// Per-stage latency histograms: where an accepted /estimate request
	// spends its wall time. "admission" is slot+queue wait, "session" the
	// warm-session lookup (including a cold compile), "compile" the cold
	// synthesis alone, "sweep" the batched estimation, "respond" the JSON
	// encode.
	hStageAdmission = stageSeconds("admission")
	hStageSession   = stageSeconds("session")
	hStageCompile   = stageSeconds("compile")
	hStageSweep     = stageSeconds("sweep")
	hStageRespond   = stageSeconds("respond")
)

func stageSeconds(stage string) *telemetry.Histogram {
	return telemetry.Default.Histogram("serve_stage_"+stage+"_seconds",
		"wall time of the "+stage+" stage of /estimate requests",
		telemetry.ExpBuckets(1e-5, 2, 24))
}

// Per-endpoint RED metrics (rate, errors, duration). The registry has no
// labels; the endpoint name is baked into the metric name, and the endpoint
// set is small and fixed.
func endpointRequests(name string) *telemetry.Counter {
	return telemetry.Default.Counter("serve_endpoint_"+name+"_requests_total",
		"requests served on the "+name+" endpoint")
}

func endpointErrors(name string) *telemetry.Counter {
	return telemetry.Default.Counter("serve_endpoint_"+name+"_errors_total",
		"requests that failed with 5xx on the "+name+" endpoint")
}

func endpointSeconds(name string) *telemetry.Histogram {
	return telemetry.Default.Histogram("serve_endpoint_"+name+"_seconds",
		"request wall time on the "+name+" endpoint", telemetry.ExpBuckets(1e-5, 2, 24))
}

// endpointName maps a request path to its metric/identifier name.
func endpointName(path string) string {
	switch path {
	case "/estimate":
		return "estimate"
	case "/snapshot":
		return "snapshot"
	case "/restore":
		return "restore"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/debug/requests":
		return "debug_requests"
	default:
		return "other"
	}
}

// Config sizes the server. The zero value is usable; every field has a
// sensible default.
type Config struct {
	// Workers is the number of requests estimated concurrently (default 2).
	Workers int
	// Queue is the number of requests that may wait beyond the Workers
	// in-flight ones before new arrivals are rejected with 429
	// (default 8; negative = no waiting room at all).
	Queue int
	// PointWorkers bounds the per-request batch parallelism — how many of
	// one request's points run at once (default 4).
	PointWorkers int
	// DefaultDeadline is the per-request wall-clock bound applied when the
	// request does not set one (default 30s).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// TraceRing sizes the /debug/requests ring of recent completed request
	// traces (default 64; negative disables request tracing entirely —
	// no spans, no ring, no trace header).
	TraceRing int
	// MaxSpans caps the spans captured per request (default 2048); excess
	// spans are counted as dropped on the trace instead of growing memory
	// without bound.
	MaxSpans int
	// SlowThreshold marks requests at least this slow for the always-on
	// slow-request capture ring (0 = no slow flagging; error requests are
	// captured regardless).
	SlowThreshold time.Duration
	// AccessLog, when non-nil, receives one JSONL line per request
	// carrying the trace id (health probes excluded).
	AccessLog io.Writer

	// ShardName identifies this node in a fleet; it is echoed on every
	// Response so clients (and the router's tests) can observe placement.
	// Empty on standalone nodes.
	ShardName string
	// ECacheStore, when non-nil, replicates session energy-cache warmth
	// through the fleet cache-sync tier: write-behind pushes every
	// ECacheSyncInterval plus a prime pull the moment a session cache is
	// created.
	ECacheStore ecachesync.Store
	// ECacheSyncInterval is the write-behind period (default 2s).
	ECacheSyncInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 8
	}
	if c.PointWorkers <= 0 {
		c.PointWorkers = 4
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 2048
	}
	if c.ECacheSyncInterval <= 0 {
		c.ECacheSyncInterval = 2 * time.Second
	}
	return c
}

// sessionKey identifies one compiled design: everything that reaches
// synthesis must be part of the key.
type sessionKey struct {
	system  string
	packets int
}

type job struct {
	ctx  context.Context
	req  *coestapi.Request
	done chan jobOutcome

	// Admission accounting: enq is when the request entered the queue;
	// admit is the open admission span, ended by the worker that dequeues
	// the job (the zero mark when the request is untraced).
	enq   time.Time
	admit telemetry.SpanMark
}

type jobOutcome struct {
	resp *coestapi.Response
	err  error
}

// Server is the estimation service: an http.Handler serving POST /estimate,
// the GET /healthz (liveness) and /readyz (routability) probes, and the
// GET /debug/requests trace ring. Construct with New, dispose with Drain.
type Server struct {
	cfg   Config
	jobs  chan *job
	slots chan struct{} // admission tokens: Workers in-flight + Queue waiting
	quit  chan struct{}

	gate     sync.Mutex // guards draining and admission into inflight
	draining bool
	inflight sync.WaitGroup // accepted but unfinished requests
	stop     sync.Once

	// notReady flips /readyz to 503 ahead of the drain (lame-duck mode):
	// the load balancer stops routing while in-flight work still finishes.
	notReady atomic.Bool

	mu       sync.Mutex
	sessions map[sessionKey]*coest.Session

	// syncer replicates session energy caches through the fleet cache tier
	// (nil without Config.ECacheStore).
	syncer *ecachesync.Syncer

	// Request tracing (nil when Config.TraceRing < 0): ring holds the most
	// recent completed traces, slowRing the slow/error capture that fast
	// traffic must not evict.
	ring     *traceRing
	slowRing *traceRing
	access   *accessLogger
}

// accept admits one request into the in-flight set unless the server is
// draining. Admission and the draining flag share a lock so Drain's
// inflight.Wait never races an Add from zero.
func (s *Server) accept() bool {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) isDraining() bool {
	s.gate.Lock()
	defer s.gate.Unlock()
	return s.draining
}

// New starts a server with cfg.Workers estimation workers. The caller must
// eventually call Drain to stop them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(chan *job, cfg.Workers+cfg.Queue),
		slots:    make(chan struct{}, cfg.Workers+cfg.Queue),
		quit:     make(chan struct{}),
		sessions: make(map[sessionKey]*coest.Session),
		access:   newAccessLogger(cfg.AccessLog),
	}
	if cfg.TraceRing > 0 {
		s.ring = newTraceRing(cfg.TraceRing)
		s.slowRing = newTraceRing(cfg.TraceRing)
	}
	if cfg.ECacheStore != nil {
		s.syncer = ecachesync.New(cfg.ECacheStore, cfg.ECacheSyncInterval)
		s.syncer.Start()
	}
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ECacheSyncNow forces one synchronous write-behind round against the fleet
// cache store — the deterministic handle tests and operators use instead of
// waiting out the interval. A server without a store returns nil.
func (s *Server) ECacheSyncNow(ctx context.Context) error {
	if s.syncer == nil {
		return nil
	}
	return s.syncer.SyncNow(ctx)
}

// Unready flips /readyz to 503 without refusing work — the lame-duck step
// a load balancer needs before Drain starts returning 503s to real
// requests. It is reversible with Ready (tests; operator re-enable).
func (s *Server) Unready() { s.notReady.Store(true) }

// Ready undoes Unready.
func (s *Server) Ready() { s.notReady.Store(false) }

// tracing reports whether request tracing is enabled.
func (s *Server) tracing() bool { return s.ring != nil }

func (s *Server) worker() {
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			gQueue.Add(-1)
			j.admit.End(0, 0)
			hStageAdmission.Observe(time.Since(j.enq).Seconds())
			resp, err := s.estimate(j.ctx, j.req)
			j.done <- jobOutcome{resp: resp, err: err}
		}
	}
}

// canonicalSystem resolves the default design name, so session keys, shard
// fingerprints and cache-sync scopes agree across every fleet node.
func canonicalSystem(name string) string { return coestapi.CanonicalSystem(name) }

// session returns the design's warm session, compiling it on first use, and
// whether it already existed. The compile-or-reuse decision lands on the
// request trace: a cold build opens a "compile" span, a warm hit records a
// "reuse" instant.
func (s *Server) session(ctx context.Context, req *coestapi.Request) (*coest.Session, bool, error) {
	key := sessionKey{system: canonicalSystem(req.System), packets: req.Packets}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[key]; ok {
		telemetry.SpanScopeFrom(ctx).Instant("reuse", key.system, int64(key.packets))
		return sess, true, nil
	}
	sys, err := buildSystem(req)
	if err != nil {
		return nil, false, err
	}
	compileStart := time.Now()
	_, cspan := telemetry.StartSpanWith(ctx, "compile", key.system, int64(key.packets))
	sess, err := coest.NewSession(sys)
	cspan.End()
	hStageCompile.Observe(time.Since(compileStart).Seconds())
	if err != nil {
		return nil, false, err
	}
	mSessions.Inc()
	s.installSessionLocked(key, sess)
	return sess, false, nil
}

// sessionFor returns an existing session without compiling, or nil.
func (s *Server) sessionFor(system string, packets int) *coest.Session {
	key := sessionKey{system: canonicalSystem(system), packets: packets}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[key]
}

// installSessionLocked registers a session (cold-compiled or restored) and
// wires it into the fleet cache-sync tier: its energy caches attach the
// moment they are created (the attach primes them from the store —
// pull-on-miss). Callers hold s.mu.
func (s *Server) installSessionLocked(key sessionKey, sess *coest.Session) {
	s.sessions[key] = sess
	if s.syncer != nil {
		design := coestapi.Fingerprint(key.system, key.packets)
		syncer := s.syncer
		sess.OnECachePair(func(p coest.ECacheParams, sw, hw *ecache.Cache) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Attach errors only delay warmth sharing — the next interval
			// retries — so they must not fail the request that created the
			// pair.
			_ = syncer.Attach(ctx, ecachesync.Scope{Design: design, Role: "sw", Params: p}, sw)
			_ = syncer.Attach(ctx, ecachesync.Scope{Design: design, Role: "hw", Params: p}, hw)
		})
	}
}

func buildSystem(req *coestapi.Request) (*coest.System, error) {
	switch req.System {
	case "", "tcpip":
		p := coest.DefaultTCPIPParams()
		if req.Packets > 0 {
			p.Packets = req.Packets
		}
		return coest.TCPIP(p), nil
	default:
		if req.Packets != 0 {
			return nil, fmt.Errorf("packets only applies to the tcpip system")
		}
		return coest.BySystemName(req.System)
	}
}

func pointOptions(p coestapi.PointSpec) []coest.Option {
	var opts []coest.Option
	if p.DMASize != 0 {
		opts = append(opts, coest.WithDMASize(p.DMASize))
	}
	if p.ECache {
		opts = append(opts, coest.WithEnergyCache())
	}
	if p.Macro {
		opts = append(opts, coest.WithMacroModel())
	}
	if p.Sampling {
		opts = append(opts, coest.WithSampling())
	}
	if p.MaxSimTimeNS > 0 {
		opts = append(opts, coest.WithMaxSimTime(time.Duration(p.MaxSimTimeNS)))
	}
	return opts
}

// estimate runs one request on its design's warm session, coalescing the
// request's points into a single batched sweep.
func (s *Server) estimate(ctx context.Context, req *coestapi.Request) (*coestapi.Response, error) {
	sessionStart := time.Now()
	sessCtx, sspan := telemetry.StartSpan(ctx, "session")
	sess, warm, err := s.session(sessCtx, req)
	sspan.End()
	hStageSession.Observe(time.Since(sessionStart).Seconds())
	if err != nil {
		return nil, err
	}
	if warm {
		mWarmHits.Inc()
	}
	specs := req.Points
	if len(specs) == 0 {
		specs = []coestapi.PointSpec{{}}
	}
	points := make([][]coest.Option, len(specs))
	for i, p := range specs {
		points[i] = pointOptions(p)
	}
	sweepStart := time.Now()
	sweepCtx, wspan := telemetry.StartSpanWith(ctx, "sweep", "", int64(len(points)))
	results, err := sess.EstimateBatch(sweepCtx, points, coest.WithWorkers(s.cfg.PointWorkers))
	wspan.End()
	hStageSweep.Observe(time.Since(sweepStart).Seconds())
	if err != nil {
		return nil, err
	}
	resp := &coestapi.Response{
		Version: coestapi.Version, System: canonicalSystem(req.System),
		Shard: s.cfg.ShardName, Warm: warm,
		Points: make([]coestapi.PointResult, 0, len(results)),
	}
	for _, r := range results {
		resp.Points = append(resp.Points, wirePoint(r))
		mPoints.Inc()
	}
	return resp, nil
}

// wirePoint converts one batch outcome to its wire form. The error budget
// rides along whenever the run accumulated one worth reporting.
func wirePoint(r coest.PointResult) coestapi.PointResult {
	pr := coestapi.PointResult{Index: r.Index}
	if r.Err != nil {
		pr.Error = r.Err.Error()
		return pr
	}
	pr.TotalJ = r.Report.Total.Joules()
	pr.SWJ = r.Report.SWEnergy.Joules()
	pr.HWJ = r.Report.HWEnergy.Joules()
	pr.SimulatedNS = int64(r.Report.SimulatedTime)
	pr.ISSCalls = r.Report.ISSCalls
	pr.ISSInsts = r.Report.ISSInsts
	if b := r.Report.Budget; b != nil && (b.Bound != 0 || b.CI95 != 0 || b.Uncalibrated) {
		pr.Budget = &coestapi.ErrorBudget{
			TotalJ:       b.Total.Joules(),
			BoundJ:       b.Bound.Joules(),
			CI95J:        b.CI95.Joules(),
			Uncalibrated: b.Uncalibrated,
		}
	}
	return pr
}

// statusRecorder captures the response status for metrics, access logs and
// the request trace.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusRecorder) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// traceState is one in-flight request's tracing context.
type traceState struct {
	ctx  context.Context
	id   telemetry.TraceID
	root *telemetry.Span
	col  *traceCollector

	// Estimation metadata, filled by handleEstimate before the request
	// finishes (same goroutine; no locking needed).
	system string
	points int
	warm   bool
	errMsg string
}

// startTrace opens the request's trace: the id comes from the inbound
// X-Coest-Trace-Id header when present (cross-node stitching) or is freshly
// generated, the root "request" span optionally parents under an inbound
// X-Coest-Parent-Span, and the id is echoed on the response before any
// status is written.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) *traceState {
	id := telemetry.TraceID{}
	if h := r.Header.Get(coestapi.TraceHeader); h != "" {
		if parsed, err := telemetry.ParseTraceID(h); err == nil {
			id = parsed
		}
	}
	if id.IsZero() {
		id = telemetry.NewTraceID()
	}
	col := newTraceCollector(s.cfg.MaxSpans)
	scope := telemetry.NewSpanScope(telemetry.Synchronized(col), id)
	if h := r.Header.Get(coestapi.ParentSpanHeader); h != "" {
		var parent uint64
		if _, err := fmt.Sscanf(h, "%x", &parent); err == nil {
			scope = scope.WithParent(parent)
		}
	}
	ctx := telemetry.ContextWithSpanScope(r.Context(), scope)
	ctx, root := telemetry.StartSpanWith(ctx, "request", r.Method+" "+r.URL.Path, 0)
	w.Header().Set(coestapi.TraceHeader, id.String())
	return &traceState{ctx: ctx, id: id, root: root, col: col}
}

// finish closes out one request: RED metrics for every endpoint, an access
// line for everything but health probes, and — for traced requests — the
// completed trace into the ring(s).
func (s *Server) finish(w *statusRecorder, r *http.Request, st *traceState, start time.Time) {
	dur := time.Since(start)
	name := endpointName(r.URL.Path)
	endpointRequests(name).Inc()
	endpointSeconds(name).Observe(dur.Seconds())
	failed := w.status >= 500
	if failed {
		endpointErrors(name).Inc()
		mErrors.Inc()
	}
	slow := s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
	if slow {
		mSlow.Inc()
	}

	var traceID string
	if st != nil {
		traceID = st.id.String()
	}
	if name != "healthz" && name != "readyz" {
		rec := accessRecord{
			Time: nowRFC3339(start), Trace: traceID,
			Method: r.Method, Path: r.URL.Path, Status: w.status,
			DurMS: float64(dur) / float64(time.Millisecond), Slow: slow,
		}
		if st != nil {
			rec.System, rec.Points, rec.Warm, rec.Error = st.system, st.points, st.warm, st.errMsg
		}
		s.access.log(rec)
	}

	if st == nil {
		return
	}
	st.root.End()
	spans, dropped := st.col.take()
	t := &RequestTrace{
		Trace: traceID, Start: start, DurNS: int64(dur),
		Method: r.Method, Path: r.URL.Path, Status: w.status,
		System: st.system, Points: st.points,
		Warm: st.warm, Error: st.errMsg, Slow: slow,
		Dropped: dropped, Spans: spans,
	}
	s.ring.add(t)
	if slow || failed {
		s.slowRing.add(t)
	}
}

// ServeHTTP routes the estimation endpoint (POST /estimate), the snapshot
// pair (POST /snapshot, /restore), the health probes, and the trace ring.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	var st *traceState
	if r.URL.Path == "/estimate" && s.tracing() {
		st = s.startTrace(sr, r)
		r = r.WithContext(st.ctx)
	}
	switch r.URL.Path {
	case "/healthz":
		// Pure liveness: the process is up and serving. Draining does not
		// make a process dead — routability is /readyz's job.
		sr.WriteHeader(http.StatusOK)
		fmt.Fprintln(sr, "ok")
	case "/readyz":
		// Routability: flips 503 the moment the daemon goes lame-duck
		// (Unready) or starts draining, so a load balancer stops routing
		// before real requests see 503s.
		if s.notReady.Load() || s.isDraining() {
			http.Error(sr, "draining", http.StatusServiceUnavailable)
		} else {
			sr.WriteHeader(http.StatusOK)
			fmt.Fprintln(sr, "ok")
		}
	case "/estimate":
		s.handleEstimate(sr, r, st)
	case "/snapshot":
		s.handleSnapshot(sr, r, st)
	case "/restore":
		s.handleRestore(sr, r, st)
	case "/debug/requests":
		s.DebugRequestsHandler().ServeHTTP(sr, r)
	default:
		s.writeError(sr, st, &reqError{status: http.StatusNotFound, code: coestapi.CodeNotFound,
			msg: "no such endpoint: " + r.URL.Path})
	}
	s.finish(sr, r, st, start)
}

// reqError is a request failure on its way to the wire error envelope.
type reqError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

// writeError emits the JSON error envelope of the versioned wire API. Every
// non-2xx answer of the API endpoints goes through here, so clients always
// get a stable machine-readable code alongside the HTTP status.
func (s *Server) writeError(w http.ResponseWriter, st *traceState, e *reqError) {
	if st != nil && st.errMsg == "" {
		st.errMsg = e.msg
	}
	info := coestapi.ErrorInfo{Code: e.code, Message: e.msg, Shard: s.cfg.ShardName}
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((e.retryAfter+time.Second-1)/time.Second)))
		info.RetryAfterMS = int(e.retryAfter / time.Millisecond)
	}
	resp := coestapi.ErrorResponse{Version: coestapi.Version, Error: info}
	if st != nil {
		resp.TraceID = st.id.String()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	_ = json.NewEncoder(w).Encode(resp)
}

// maxPackets caps a design's packet count, checked by checkDesign before
// admission: validation runs ahead of the drain check and the admission
// slot, so neither limits what it costs. Validating a request for a design
// with no warm session builds the system, one stimulus closure and payload
// per packet (~312 B each).
const maxPackets = 4096

// maxPoints caps a request's point count, checked with maxPackets before
// admission: the client picks its own deadline, so without a bound one
// request could hold a worker for hours. In-repo callers send one point;
// the Fig 7 grid is 42.
const maxPoints = 256

// bodyError maps a failure to read or decode a request body: 413 past
// coestapi.MaxBodyBytes, 400 otherwise.
func bodyError(err error) *reqError {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &reqError{status: http.StatusRequestEntityTooLarge, code: coestapi.CodeBadRequest,
			msg: fmt.Sprintf("bad request: body exceeds %d bytes", coestapi.MaxBodyBytes)}
	}
	return &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: "bad request: " + err.Error()}
}

// decodeBody decodes a JSON request body of at most coestapi.MaxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *reqError {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, coestapi.MaxBodyBytes)).Decode(v); err != nil {
		return bodyError(err)
	}
	return nil
}

// checkDesign bounds a design identity's packet count to 0..maxPackets (0
// is the default design) before anything is built or looked up. /estimate,
// /snapshot and /restore all call it: each distinct count is its own
// session, so an unbounded count grows the registry without bound.
func checkDesign(packets int) error {
	if packets < 0 || packets > maxPackets {
		return fmt.Errorf("packets %d outside 0..%d", packets, maxPackets)
	}
	return nil
}

// validateRequest admission-checks one wire request: version negotiation
// (400 with unsupported_version on an unknown major), then the shape checks.
// The packet and point bounds come before anything is built. A request for
// a design with a warm session builds nothing: that session was built from
// the same (system, packets). Any other request must build.
func (s *Server) validateRequest(req *coestapi.Request) *reqError {
	if err := coestapi.CheckVersion(req.Version); err != nil {
		return &reqError{status: http.StatusBadRequest, code: coestapi.CodeUnsupportedVersion, msg: err.Error()}
	}
	if req.DeadlineMS < 0 {
		return &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: "bad request: negative deadline"}
	}
	if err := checkDesign(req.Packets); err != nil {
		return &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: "bad request: " + err.Error()}
	}
	if len(req.Points) > maxPoints {
		return &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest,
			msg: fmt.Sprintf("bad request: %d points exceed %d", len(req.Points), maxPoints)}
	}
	if s.sessionFor(req.System, req.Packets) != nil {
		return nil
	}
	if _, err := buildSystem(req); err != nil {
		return &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: "bad request: " + err.Error()}
	}
	return nil
}

// runOne executes one validated, accepted request: admission token, worker
// handoff, and error mapping. A saturated server sheds it with 429.
func (s *Server) runOne(rctx context.Context, req *coestapi.Request, st *traceState) (*coestapi.Response, *reqError) {
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(rctx, deadline)
	defer cancel()

	// Admission is a token, not a channel handoff, so shedding does not
	// depend on worker scheduling: Workers+Queue requests may be in the
	// system, the rest are rejected immediately. The admission span opens
	// here and is ended by the worker that dequeues the job — it measures
	// slot wait plus queue wait.
	admit := telemetry.SpanScopeFrom(ctx).Begin("admission", "")
	enq := time.Now()
	select {
	case s.slots <- struct{}{}:
	default:
		// Backpressure: queue and workers are saturated. Shed, so the
		// client backs off instead of piling on.
		admit.End(0, 0)
		mRejected.Inc()
		return nil, &reqError{status: http.StatusTooManyRequests, code: coestapi.CodeOverloaded,
			msg: "queue full", retryAfter: s.cfg.RetryAfter}
	}
	defer func() { <-s.slots }()

	j := &job{ctx: ctx, req: req, done: make(chan jobOutcome, 1), enq: enq, admit: admit}
	s.jobs <- j // cannot block: the slot guarantees room
	gQueue.Add(1)
	mRequests.Inc()
	start := time.Now()
	out := <-j.done
	hLatency.Observe(time.Since(start).Seconds())
	if st != nil {
		if out.err != nil {
			st.errMsg = out.err.Error()
		} else if out.resp != nil {
			st.system, st.points, st.warm = out.resp.System, len(out.resp.Points), out.resp.Warm
		}
	}
	if out.err != nil {
		switch {
		case errors.Is(out.err, context.DeadlineExceeded):
			return nil, &reqError{status: http.StatusGatewayTimeout, code: coestapi.CodeDeadlineExceeded, msg: "deadline exceeded"}
		case errors.Is(out.err, context.Canceled):
			// The client went away; the status is a formality.
			return nil, &reqError{status: http.StatusServiceUnavailable, code: coestapi.CodeCanceled, msg: "canceled"}
		default:
			return nil, &reqError{status: http.StatusInternalServerError, code: coestapi.CodeInternal, msg: out.err.Error()}
		}
	}
	return out.resp, nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, st *traceState) {
	if r.Method != http.MethodPost {
		s.writeError(w, st, &reqError{status: http.StatusMethodNotAllowed, code: coestapi.CodeMethodNotAllowed, msg: "POST only"})
		return
	}
	var req coestapi.Request
	if e := decodeBody(w, r, &req); e != nil {
		s.writeError(w, st, e)
		return
	}
	if e := s.validateRequest(&req); e != nil {
		s.writeError(w, st, e)
		return
	}

	if !s.accept() {
		mDrained.Inc()
		s.writeError(w, st, &reqError{status: http.StatusServiceUnavailable, code: coestapi.CodeDraining,
			msg: "draining", retryAfter: s.cfg.RetryAfter})
		return
	}
	defer s.inflight.Done()

	resp, rerr := s.runOne(r.Context(), &req, st)
	if rerr != nil {
		s.writeError(w, st, rerr)
		return
	}
	if st != nil {
		resp.TraceID = st.id.String()
	}
	respondStart := time.Now()
	mark := telemetry.SpanScopeFrom(r.Context()).Begin("respond", "")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Response already committed; nothing more to do.
		_ = err
	}
	mark.End(0, 0)
	hStageRespond.Observe(time.Since(respondStart).Seconds())
}

// handleSnapshot serializes one warm session. The session must already
// exist — snapshotting never compiles.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, st *traceState) {
	if r.Method != http.MethodPost {
		s.writeError(w, st, &reqError{status: http.StatusMethodNotAllowed, code: coestapi.CodeMethodNotAllowed, msg: "POST only"})
		return
	}
	var req coestapi.SnapshotRequest
	if e := decodeBody(w, r, &req); e != nil {
		s.writeError(w, st, e)
		return
	}
	if err := coestapi.CheckVersion(req.Version); err != nil {
		s.writeError(w, st, &reqError{status: http.StatusBadRequest, code: coestapi.CodeUnsupportedVersion, msg: err.Error()})
		return
	}
	if err := checkDesign(req.Packets); err != nil {
		s.writeError(w, st, &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: "bad request: " + err.Error()})
		return
	}
	sess := s.sessionFor(req.System, req.Packets)
	if sess == nil {
		s.writeError(w, st, &reqError{status: http.StatusNotFound, code: coestapi.CodeNotFound,
			msg: fmt.Sprintf("no warm session for %s/%d", canonicalSystem(req.System), req.Packets)})
		return
	}
	var blob bytes.Buffer
	if err := sess.WriteSnapshot(&blob); err != nil {
		s.writeError(w, st, &reqError{status: http.StatusInternalServerError, code: coestapi.CodeInternal, msg: err.Error()})
		return
	}
	env := coestapi.SnapshotEnvelope{System: canonicalSystem(req.System), Packets: req.Packets, Blob: blob.Bytes()}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		_ = err // committed; nothing more to do
	}
	mSnapshots.Inc()
}

// RestoreSnapshot installs a warm session from a snapshot envelope (the
// bytes served by POST /snapshot): the design's identity is bounded
// (checkDesign) before anything is built, the design is rebuilt from its
// name and compiled once (coest.RestoreSession), the snapshot's learned
// energy caches are checked and loaded into it, and the session is
// registered under its key. When the key is already warm, the existing
// session (and its locally learned state) wins: the snapshot is checked
// as a restore would check it (coest.CheckSnapshot), and nothing is
// compiled. Used by both POST /restore and the daemon's restore-on-boot.
func (s *Server) RestoreSnapshot(data []byte) (coestapi.RestoreResponse, error) {
	var env coestapi.SnapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return coestapi.RestoreResponse{}, fmt.Errorf("decoding snapshot envelope: %w", err)
	}
	if err := checkDesign(env.Packets); err != nil {
		return coestapi.RestoreResponse{}, err
	}
	req := coestapi.Request{System: env.System, Packets: env.Packets}
	sys, err := buildSystem(&req)
	if err != nil {
		return coestapi.RestoreResponse{}, err
	}
	key := sessionKey{system: canonicalSystem(env.System), packets: env.Packets}
	sess := s.sessionFor(env.System, env.Packets)
	if sess != nil {
		// Warm already: check the envelope as a restore would, but
		// compile nothing — the existing session wins anyway.
		err = coest.CheckSnapshot(sys, bytes.NewReader(env.Blob))
	} else {
		var restored *coest.Session
		restored, err = coest.RestoreSession(sys, bytes.NewReader(env.Blob))
		if err == nil {
			s.mu.Lock()
			if sess = s.sessions[key]; sess == nil {
				sess = restored
				s.installSessionLocked(key, sess)
				mRestored.Inc()
			}
			s.mu.Unlock()
		}
	}
	if err != nil {
		return coestapi.RestoreResponse{}, err
	}
	return coestapi.RestoreResponse{
		Version: coestapi.Version, System: key.system, Packets: key.packets,
		Paths: sess.SnapshotPaths(),
	}, nil
}

// handleRestore accepts a snapshot envelope and installs the warm session.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, st *traceState) {
	if r.Method != http.MethodPost {
		s.writeError(w, st, &reqError{status: http.StatusMethodNotAllowed, code: coestapi.CodeMethodNotAllowed, msg: "POST only"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, coestapi.MaxBodyBytes))
	if err != nil {
		s.writeError(w, st, bodyError(err))
		return
	}
	resp, err := s.RestoreSnapshot(data)
	if err != nil {
		s.writeError(w, st, &reqError{status: http.StatusBadRequest, code: coestapi.CodeBadRequest, msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// Drain stops accepting new requests, waits for queued and in-flight ones
// to finish (in-flight simulations keep their own deadlines; a caller in a
// hurry cancels ctx, which only abandons the wait — requests still complete),
// then stops the workers. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.Lock()
	s.draining = true
	s.gate.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain aborted: %w", context.Cause(ctx))
	}
	s.stop.Do(func() {
		close(s.quit)
		if s.syncer != nil {
			// Final write-behind round: locally learned paths reach the
			// fleet store before the process exits.
			_ = s.syncer.Stop(ctx)
		}
	})
	return nil
}
