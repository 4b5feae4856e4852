// Package router is the fleet front of the co-estimation service: a stateless
// HTTP router that consistent-hashes design fingerprints onto warm coestd
// shards. Stickiness is the whole point — a design always lands on the same
// shard, so the fleet compiles each design exactly once and every repeat
// request rides that shard's warm session and energy caches.
//
// Availability comes from two mechanisms layered over the ring:
//
//   - health-aware membership: a prober polls each shard's /readyz, and
//     requests skip shards that are dead or draining;
//   - bounded retry with backoff: shard-down failures fail over along the
//     ring (the successor may restore the design from a snapshot), while
//     429s retry the owner — failing over an overloaded design would
//     trigger a cold compile on the neighbor, the worst response to load.
//
// Under overload a shard sheds with 429 and Retry-After; the router backs
// off and retries the owner, and relays the shard's own 429 envelope when
// every attempt meets one. Every 200 it relays is the estimate the request
// asked for.
//
// The router also hosts the fleet's central energy-cache store at
// /ecache/sync, so shards pointed at it share path statistics: a path
// learned on shard A prices the same path on shard B after one sync round.
package router

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
	"time"

	"repro/internal/ecachesync"
	"repro/internal/telemetry"
	"repro/pkg/coest/coestapi"
)

// Router metrics, on the process-wide registry.
var (
	mRequests  = telemetry.Default.Counter("router_requests_total", "requests routed to shards")
	mRetries   = telemetry.Default.Counter("router_retries_total", "same-shard retries (overload backoff)")
	mFailovers = telemetry.Default.Counter("router_failovers_total", "ring failovers after a shard failure")
	mErrors    = telemetry.Default.Counter("router_errors_total", "requests answered with an error after all attempts")
)

// Shard is one fleet member.
type Shard struct {
	// Name is the shard's ring identity; it must match the shard's
	// -shard-name so response attribution and placement agree.
	Name string `json:"name"`
	// URL is the shard's base URL (http://host:port).
	URL string `json:"url"`
}

// Config sizes the router. Shards is required; everything else defaults.
type Config struct {
	Shards []Shard
	// Replicas is the virtual-node count per shard on the hash ring
	// (default 64).
	Replicas int
	// Retries bounds additional attempts after the first (default 2).
	Retries int
	// RetryBackoff is the base backoff between attempts, doubled each time
	// (default 50ms).
	RetryBackoff time.Duration
	// ProbeInterval is the /readyz health-probe period (default 1s).
	ProbeInterval time.Duration
	// Store is the fleet's central energy-cache store served at
	// /ecache/sync (default: a fresh in-memory store).
	Store ecachesync.Store
	// Client overrides the HTTP client used toward shards (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Store == nil {
		c.Store = ecachesync.NewMemory()
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// Router is the fleet front; construct with New, dispose with Stop.
type Router struct {
	cfg    Config
	ring   *ring
	health *health
	sync   http.Handler // /ecache/sync — the central cache store
}

// New builds the router and starts its health prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	names := make([]string, len(cfg.Shards))
	urls := make([]string, len(cfg.Shards))
	seen := map[string]bool{}
	for i, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("router: shard %d needs both name and url", i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		names[i], urls[i] = s.Name, s.URL
	}
	rt := &Router{
		cfg:    cfg,
		ring:   newRing(names, cfg.Replicas),
		health: newHealth(cfg.Client, urls, cfg.ProbeInterval),
		sync:   ecachesync.Handler(cfg.Store),
	}
	rt.health.Start()
	return rt, nil
}

// Stop halts the health prober.
func (rt *Router) Stop() { rt.health.Stop() }

// CheckNow forces one synchronous health-probe round (tests, operators).
func (rt *Router) CheckNow(ctx context.Context) { rt.health.CheckNow(ctx) }

// Owner returns the name of the shard owning the design — the placement
// tests' oracle.
func (rt *Router) Owner(system string, packets int) string {
	fp := coestapi.Fingerprint(coestapi.CanonicalSystem(system), packets)
	return rt.cfg.Shards[rt.ring.owner(fp)].Name
}

// candidates returns the design's shard attempt order: the healthy members
// of its ring sequence, or the full sequence when the prober sees nothing
// healthy (the request itself then discovers recoveries the prober missed).
func (rt *Router) candidates(fp uint64) []int {
	seq := rt.ring.sequence(fp)
	healthy := seq[:0:0]
	for _, i := range seq {
		if rt.health.Ready(i) {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		return seq
	}
	return healthy
}

// writeError emits the router's own error envelope (shard "router").
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	info := coestapi.ErrorInfo{Code: code, Message: msg, Shard: "router"}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		info.RetryAfterMS = int(retryAfter / time.Millisecond)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(coestapi.ErrorResponse{Version: coestapi.Version, Error: info})
}

// send posts body to one shard, forwarding the inbound trace headers so the
// shard's trace grafts under the caller's.
func (rt *Router) send(ctx context.Context, shard int, path, contentType string, body []byte, inbound http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Shards[shard].URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	for _, h := range []string{coestapi.TraceHeader, coestapi.ParentSpanHeader} {
		if v := inbound.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.cfg.Client.Do(req)
}

// retryable reports whether a shard answer means "try the next shard":
// transport failure or a gateway-ish 5xx. 429 is deliberately not here —
// overload retries the same owner (see route).
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInternalServerError:
		return true
	}
	return false
}

// route forwards body to the design's shard sequence with bounded
// retry-with-backoff: shard-down failures fail over along the ring, 429s
// back off and retry the owner (failing over an overloaded design would
// cold-compile it on the neighbor). The final response is relayed verbatim
// — status, wire headers and body.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, fp uint64, path, contentType string, body []byte) {
	cands := rt.candidates(fp)
	if len(cands) == 0 {
		mErrors.Inc()
		writeError(w, http.StatusServiceUnavailable, coestapi.CodeUnavailable, "no shards configured", 0)
		return
	}
	mRequests.Inc()
	pos := 0 // index into cands; advances on failover
	var last *http.Response
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if last != nil { // drop the previous retryable answer
			io.Copy(io.Discard, last.Body)
			last.Body.Close()
			last = nil
		}
		if attempt > 0 {
			backoff := rt.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				mErrors.Inc()
				writeError(w, http.StatusGatewayTimeout, coestapi.CodeDeadlineExceeded, "client gone during retry", 0)
				return
			}
		}
		resp, err := rt.send(r.Context(), cands[pos], path, contentType, body, r.Header)
		if retryable(resp, err) {
			if resp != nil && resp.StatusCode == http.StatusServiceUnavailable {
				// Draining or lame-duck: this shard is leaving; move on.
				mFailovers.Inc()
				if pos+1 < len(cands) {
					pos++
				}
			} else if err != nil {
				mFailovers.Inc()
				// Fast prober update — off a background context: if the
				// transport error was really the client disconnecting, a
				// request-scoped probe would fail too and wrongly bench a
				// healthy shard for a probe interval.
				if r.Context().Err() == nil {
					rt.health.probe(context.Background(), cands[pos])
				}
				if pos+1 < len(cands) {
					pos++
				}
			} else {
				mRetries.Inc() // 5xx from a live shard: retry it
			}
			last = resp
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Overloaded owner: back off and retry the same shard — never
			// fail over load.
			mRetries.Inc()
			last = resp
			continue
		}
		rt.relay(w, resp)
		return
	}
	mErrors.Inc()
	if last != nil {
		rt.relay(w, last) // the final 429/5xx envelope, Retry-After intact
		return
	}
	writeError(w, http.StatusBadGateway, coestapi.CodeUnavailable, "all shards unreachable", rt.cfg.RetryBackoff)
}

// relay copies one shard answer to the client: status, the wire headers
// that matter (content type, retry hint, trace id), and the body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", coestapi.TraceHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	body, req, ok := decodeRouted[coestapi.Request](w, r)
	if !ok {
		return
	}
	fp := coestapi.Fingerprint(coestapi.CanonicalSystem(req.System), req.Packets)
	rt.route(w, r, fp, "/estimate", "application/json", body)
}

func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	body, req, ok := decodeRouted[coestapi.SnapshotRequest](w, r)
	if !ok {
		return
	}
	fp := coestapi.Fingerprint(coestapi.CanonicalSystem(req.System), req.Packets)
	rt.route(w, r, fp, "/snapshot", "application/json", body)
}

// handleRestore routes a snapshot envelope to the design's owning shard —
// the identity travels in the clear ahead of the opaque blob exactly so the
// router need not open it.
func (rt *Router) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, coestapi.CodeMethodNotAllowed, "POST only", 0)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var env coestapi.SnapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		writeError(w, http.StatusBadRequest, coestapi.CodeBadRequest, "decoding snapshot envelope: "+err.Error(), 0)
		return
	}
	fp := coestapi.Fingerprint(coestapi.CanonicalSystem(env.System), env.Packets)
	rt.route(w, r, fp, "/restore", "application/octet-stream", body)
}

// readBody reads a request body of at most coestapi.MaxBodyBytes, emitting
// the error envelope on failure: 413 when the body is larger, before any
// shard sees it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, coestapi.MaxBodyBytes))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, coestapi.CodeBadRequest,
			fmt.Sprintf("bad request: body exceeds %d bytes", coestapi.MaxBodyBytes), 0)
	} else {
		writeError(w, http.StatusBadRequest, coestapi.CodeBadRequest, "reading request: "+err.Error(), 0)
	}
	return nil, false
}

// decodeRouted reads and decodes a routed POST body, emitting the error
// envelope (including version negotiation) on failure. The raw body is
// returned for forwarding.
func decodeRouted[T any](w http.ResponseWriter, r *http.Request) ([]byte, T, bool) {
	var req T
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, coestapi.CodeMethodNotAllowed, "POST only", 0)
		return nil, req, false
	}
	body, ok := readBody(w, r)
	if !ok {
		return nil, req, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, coestapi.CodeBadRequest, "bad request: "+err.Error(), 0)
		return nil, req, false
	}
	var probe struct {
		Version string `json:"version"`
	}
	_ = json.Unmarshal(body, &probe)
	if err := coestapi.CheckVersion(probe.Version); err != nil {
		writeError(w, http.StatusBadRequest, coestapi.CodeUnsupportedVersion, err.Error(), 0)
		return nil, req, false
	}
	return body, req, true
}

// shardStatus is one /shards row.
type shardStatus struct {
	Shard
	Ready bool `json:"ready"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	out := make([]shardStatus, len(rt.cfg.Shards))
	for i, s := range rt.cfg.Shards {
		out[i] = shardStatus{Shard: s, Ready: rt.health.Ready(i)}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// ServeHTTP routes the fleet API: the estimation endpoints to their owning
// shards, the cache-sync store locally, and the probes.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/estimate":
		rt.handleEstimate(w, r)
	case "/snapshot":
		rt.handleSnapshot(w, r)
	case "/restore":
		rt.handleRestore(w, r)
	case "/ecache/sync":
		rt.sync.ServeHTTP(w, r)
	case "/shards":
		rt.handleShards(w, r)
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case "/readyz":
		for i := range rt.cfg.Shards {
			if rt.health.Ready(i) {
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, "ok")
				return
			}
		}
		writeError(w, http.StatusServiceUnavailable, coestapi.CodeUnavailable, "no healthy shards", 0)
	default:
		writeError(w, http.StatusNotFound, coestapi.CodeNotFound, "no such endpoint: "+r.URL.Path, 0)
	}
}
