package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecachesync"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
	"repro/pkg/coest/coestclient"
)

// fleet-warm: coest-router in front of two coestd shards on loopback, the
// shards syncing their energy caches through the router's /ecache/sync
// (the README's "Running a fleet"), driven by closed-loop clients — the
// callers the serving tier is for (CI regressions, exploration front ends)
// wait for each answer.

const (
	fleetDesigns = 8  // tcpip at 1..8 packets
	fleetCached  = 18 // cached requests per design per pass: 3/4 of traffic
)

// request is one fleet-warm request: tcpip at packets packets, either
// cached (dma 0: energy cache on, default configuration) or a reference
// estimate at DMA size dma.
type request struct {
	packets int
	dma     int
}

// fleetSequence is the seed-ordered request list of one pass: per design,
// fleetCached cached requests and one reference request per DMA size.
func fleetSequence(seed int64) []request {
	var seq []request
	for p := 1; p <= fleetDesigns; p++ {
		for k := 0; k < fleetCached; k++ {
			seq = append(seq, request{packets: p})
		}
		for _, d := range dmaSizes {
			seq = append(seq, request{packets: p, dma: d})
		}
	}
	order := seededOrder(seed, len(seq))
	out := make([]request, len(seq))
	for i, j := range order {
		out[i] = seq[j]
	}
	return out
}

func (r request) wire() coestapi.Request {
	return coestapi.Request{System: "tcpip", Packets: r.packets,
		Points: []coestapi.PointSpec{{ECache: r.dma == 0, DMASize: r.dma}}}
}

type fleetWL struct {
	seq    []request
	golden fleetGolden
	nodes  *fleetNodes
}

func newFleet(seed int64) *fleetWL { return &fleetWL{seq: fleetSequence(seed)} }

func (w *fleetWL) loadGolden() error {
	if err := loadGolden("golden/fleet-warm.json", &w.golden); err != nil {
		return err
	}
	if len(w.golden.Designs) != fleetDesigns || fmt.Sprint(w.golden.DMASizes) != fmt.Sprint(dmaSizes) {
		return errors.New("oracle: fleet-warm golden does not describe the fleet-warm designs")
	}
	return nil
}

func (w *fleetWL) name() string { return "fleet-warm" }

// fleetNodes is one running fleet: the router and shards, each on its own
// loopback listener, plus the load clients.
type fleetNodes struct {
	rt      *router.Router
	shards  map[string]*serve.Server
	servers []*httpServer
	clients []*fleetClient
}

// fleetClient is one load goroutine's connection set: its client through
// the router and, for the router-hop measurement, one per shard.
type fleetClient struct {
	hc     *http.Client
	routed *coestclient.Client
	direct map[string]*coestclient.Client
}

type httpServer struct {
	srv  *http.Server
	done chan struct{}
}

func serveOn(l net.Listener, h http.Handler) *httpServer {
	s := &httpServer{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns http.ErrServerClosed on Close
	}()
	return s
}

// startFleet brings up the router and shards with their default
// configuration; only the addresses and the cache-sync store are set.
func startFleet(ctx context.Context) (*fleetNodes, error) {
	names := []string{"alpha", "beta"}
	ls := make([]net.Listener, 1+len(names))
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, o := range ls[:i] {
				o.Close()
			}
			return nil, fmt.Errorf("fleet-warm: listen: %w", err)
		}
		ls[i] = l
	}
	url := func(l net.Listener) string { return "http://" + l.Addr().String() }
	n := &fleetNodes{shards: make(map[string]*serve.Server)}
	var shards []router.Shard
	for i, name := range names {
		n.shards[name] = serve.New(serve.Config{
			ShardName:   name,
			ECacheStore: &ecachesync.HTTPStore{URL: url(ls[0]) + "/ecache/sync"},
		})
		shards = append(shards, router.Shard{Name: name, URL: url(ls[1+i])})
	}
	rt, err := router.New(router.Config{Shards: shards})
	if err != nil {
		for _, l := range ls {
			l.Close()
		}
		return nil, err
	}
	n.rt = rt
	n.servers = append(n.servers, serveOn(ls[0], rt))
	for i, name := range names {
		n.servers = append(n.servers, serveOn(ls[1+i], n.shards[name]))
	}
	for c := 0; c < workers; c++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		fc := &fleetClient{hc: hc, direct: make(map[string]*coestclient.Client),
			routed: coestclient.New(url(ls[0]), coestclient.WithRequireFull(), coestclient.WithHTTPClient(hc))}
		for i, name := range names {
			fc.direct[name] = coestclient.New(url(ls[1+i]), coestclient.WithRequireFull(), coestclient.WithHTTPClient(hc))
		}
		n.clients = append(n.clients, fc)
	}
	rt.CheckNow(ctx)
	return n, nil
}

// close drains the shards (their final cache sync needs the router), then
// stops the prober and closes every listener and connection. Nothing is in
// flight by then; Shutdown would instead wait up to five seconds for the
// spare connections HTTP clients dial and never use.
func (n *fleetNodes) close(ctx context.Context) error {
	var errs []error
	for _, s := range n.shards {
		errs = append(errs, s.Drain(ctx))
	}
	n.rt.Stop()
	for _, c := range n.clients {
		c.hc.CloseIdleConnections()
	}
	for _, s := range n.servers {
		errs = append(errs, s.srv.Close())
		<-s.done
	}
	return errors.Join(errs...)
}

// setUp starts a fresh fleet, runs one verified pass (cold compiles and
// cache fills) and syncs the shards' caches through the router.
func (w *fleetWL) setUp(ctx context.Context, rc *runCounts) (setupResult, error) {
	if w.nodes != nil {
		if err := w.nodes.close(ctx); err != nil {
			return setupResult{}, fmt.Errorf("fleet-warm: stopping the previous fleet: %w", err)
		}
		w.nodes = nil
	}
	compileHist := telemetry.Default.Histogram("serve_stage_compile_seconds", "", nil)
	compile0 := compileHist.Sum()
	start := time.Now()
	nodes, err := startFleet(ctx)
	if err != nil {
		return setupResult{}, err
	}
	w.nodes = nodes
	ph := &phase{mode: plain}
	if err := w.pass(ctx, ph); err != nil {
		return setupResult{}, err
	}
	rc.attempted += ph.attempted
	rc.failed += ph.failed
	for _, e := range ph.errs {
		rc.note(e)
	}
	for name, s := range nodes.shards {
		if err := s.ECacheSyncNow(ctx); err != nil {
			return setupResult{}, fmt.Errorf("fleet-warm: cache sync on %s: %w", name, err)
		}
	}
	compile := time.Duration((compileHist.Sum() - compile0) * float64(time.Second))
	return setupResult{wall: time.Since(start), compile: compile}, nil
}

func (w *fleetWL) close(ctx context.Context) error {
	if w.nodes == nil {
		return nil
	}
	return w.nodes.close(ctx)
}

// outcome is one request's result.
type outcome struct {
	rttMS   float64
	cached  bool
	failed  bool
	covered bool // cached answer within its own error budget
	simNS   float64
	energyJ float64
	err     error
}

// pass sends the whole request list once, shared by the closed-loop
// clients in list order.
func (w *fleetWL) pass(ctx context.Context, ph *phase) error {
	outs := make([]outcome, len(w.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range w.nodes.clients {
		wg.Add(1)
		go func(cl *fleetClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.seq) {
					return
				}
				outs[i] = w.do(ctx, cl, w.seq[i], ph)
			}
		}(cl)
	}
	wg.Wait()
	for _, o := range outs {
		ph.attempted++
		ph.lat = append(ph.lat, o.rttMS)
		ph.rttSumMS += o.rttMS
		if o.cached {
			ph.cachedLat = append(ph.cachedLat, o.rttMS)
		}
		if o.failed {
			ph.failed++
			ph.note(o.err)
			continue
		}
		ph.points++
		ph.simNS += o.simNS
		ph.energyJ += o.energyJ
		if o.cached {
			ph.cachedN++
			if o.covered {
				ph.covered++
			}
		}
	}
	return nil
}

// do sends one request and checks its answer: reference answers must
// equal the goldens exactly; cached answers depend on cache warmth by
// design and are checked against their own shipped error budget.
func (w *fleetWL) do(ctx context.Context, cl *fleetClient, r request, ph *phase) outcome {
	c := cl.routed
	if ph.mode == direct {
		c = cl.direct[w.nodes.rt.Owner("tcpip", r.packets)]
	}
	var span *telemetry.Span
	if ph.mode == traced {
		ctx = telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(ph.spans, telemetry.NewTraceID()))
		ctx, span = telemetry.StartSpan(ctx, "roundtrip")
	}
	start := time.Now()
	resp, err := c.Estimate(ctx, r.wire())
	o := outcome{rttMS: float64(time.Since(start)) / float64(time.Millisecond), cached: r.dma == 0}
	span.End()
	if err == nil && (len(resp.Points) != 1 || resp.Points[0].Error != "") {
		err = fmt.Errorf("answer %+v", resp.Points)
	}
	if err != nil {
		o.failed, o.err = true, fmt.Errorf("tcpip/%d dma %d: %w", r.packets, r.dma, err)
		return o
	}
	pt := resp.Points[0]
	o.simNS, o.energyJ = float64(pt.SimulatedNS), pt.TotalJ
	design := w.golden.Designs[r.packets-1]
	if o.cached {
		bound := 0.0
		if pt.Budget != nil {
			bound = pt.Budget.BoundJ
		}
		o.covered = math.Abs(pt.TotalJ-design.Default.TotalJ) <= bound
	} else {
		got := wireSig{TotalJ: pt.TotalJ, SWJ: pt.SWJ, HWJ: pt.HWJ, SimulatedNS: pt.SimulatedNS, ISSCalls: pt.ISSCalls}
		if want := design.DMA[dmaIndex(r.dma)]; got != want {
			o.failed, o.err = true, fmt.Errorf("tcpip/%d dma %d: got %+v, golden %+v", r.packets, r.dma, got, want)
		}
	}
	if ph.mode == traced {
		w.collectTrace(resp.Shard, resp.TraceID, ph)
	}
	return o
}

func dmaIndex(dma int) int {
	for i, d := range dmaSizes {
		if d == dma {
			return i
		}
	}
	panic(fmt.Sprintf("DMA size %d is not on the fleet axis", dma))
}

// collectTrace reads the request's span tree from the answering shard's
// trace ring (the shards trace every request by default) into the phase's
// span totals.
func (w *fleetWL) collectTrace(shard, id string, ph *phase) {
	s, ok := w.nodes.shards[shard]
	if !ok || id == "" {
		ph.missingTraces.Add(1)
		return
	}
	rec := httptest.NewRecorder()
	s.DebugRequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?trace="+id, nil))
	var t serve.RequestTrace
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &t) != nil {
		ph.missingTraces.Add(1)
		return
	}
	ph.spans.mu.Lock()
	defer ph.spans.mu.Unlock()
	for _, sp := range t.Spans {
		if sp.DurNS >= 0 {
			ph.spans.add(sp.Name, sp.DurNS)
		}
	}
}

// layers reports the fleet's own per-layer metrics.
func (w *fleetWL) layers(out map[string]float64, rp *runPhases) {
	p := rp.plain
	out["sim.simulated_us_per_point"] = p.simNS / 1e3 / float64(p.points)
	out["energy.uj_per_point"] = p.energyJ * 1e6 / float64(p.points)
	out["ecache.budget_coverage"] = ratio(float64(p.covered), float64(p.cachedN))
	out["serve.overhead_ms"] = p.rttSumMS/float64(p.attempted) - p.d.stageMeanMS("serve_stage_sweep_seconds")
	if rp.direct != nil {
		routed, err1 := percentile(p.cachedLat, 0.5)
		straight, err2 := percentile(rp.direct.cachedLat, 0.5)
		if err1 == nil && err2 == nil {
			out["router.hop_ms_p50"] = routed - straight
		}
	}
	if t := rp.traced; t != nil {
		hits, misses := t.spans.count("ecache-hit"), t.spans.count("ecache-miss")
		out["ecache.hit_ratio"] = ratio(hits, hits+misses)
	}
}

// referenceGolden computes the fleet goldens on the reference path: one
// cold coest.Estimate per design and configuration, as a shard would
// build the design (tcpip defaults at the requested packet count).
func (w *fleetWL) referenceGolden(ctx context.Context) (fleetGolden, error) {
	g := fleetGolden{DMASizes: dmaSizes}
	est := func(packets, dma int) (wireSig, error) {
		p := coest.DefaultTCPIPParams()
		p.Packets = packets
		var opts []coest.Option
		if dma > 0 {
			opts = append(opts, coest.WithDMASize(dma))
		}
		rep, err := coest.Estimate(ctx, coest.TCPIP(p), opts...)
		if err != nil {
			return wireSig{}, fmt.Errorf("fleet-warm: tcpip/%d dma %d: %w", packets, dma, err)
		}
		return wireSig{TotalJ: rep.Total.Joules(), SWJ: rep.SWEnergy.Joules(), HWJ: rep.HWEnergy.Joules(),
			SimulatedNS: int64(rep.SimulatedTime), ISSCalls: rep.ISSCalls}, nil
	}
	for p := 1; p <= fleetDesigns; p++ {
		d := fleetDesign{Packets: p}
		var err error
		if d.Default, err = est(p, 0); err != nil {
			return g, err
		}
		for _, dma := range dmaSizes {
			s, err := est(p, dma)
			if err != nil {
				return g, err
			}
			d.DMA = append(d.DMA, s)
		}
		g.Designs = append(g.Designs, d)
	}
	return g, nil
}
