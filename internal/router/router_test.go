package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/coest/coestapi"
)

// stubShard is a scriptable fake coestd: it answers /estimate with its own
// name and counts hits, so routing-policy tests observe placement without
// paying for real estimations.
type stubShard struct {
	name  string
	hits  atomic.Int64
	mode  atomic.Value // func(w http.ResponseWriter, r *http.Request) bool — true when handled
	srv   *httptest.Server
	ready atomic.Bool
}

func newStubShard(name string) *stubShard {
	s := &stubShard{name: name}
	s.ready.Store(true)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if s.ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		s.hits.Add(1)
		if fn, ok := s.mode.Load().(func(http.ResponseWriter, *http.Request) bool); ok && fn(w, r) {
			return
		}
		var req coestapi.Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&coestapi.Response{
			Version: coestapi.Version, System: coestapi.CanonicalSystem(req.System),
			Shard: s.name, Warm: true,
			Points: []coestapi.PointResult{{TotalJ: 1}},
		})
	}))
	return s
}

func fleet(t *testing.T, names ...string) ([]*stubShard, *Router) {
	t.Helper()
	shards := make([]*stubShard, len(names))
	cfgShards := make([]Shard, len(names))
	for i, n := range names {
		shards[i] = newStubShard(n)
		t.Cleanup(shards[i].srv.Close)
		cfgShards[i] = Shard{Name: n, URL: shards[i].srv.URL}
	}
	rt, err := New(Config{
		Shards: cfgShards, Retries: 3, RetryBackoff: 5 * time.Millisecond,
		ProbeInterval: time.Hour, // tests drive probes via CheckNow
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return shards, rt
}

func postEstimate(t *testing.T, rt http.Handler, req coestapi.Request) (*httptest.ResponseRecorder, *coestapi.Response) {
	t.Helper()
	body, _ := json.Marshal(&req)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp coestapi.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return rec, &resp
}

// TestStickyPlacement: the same design always lands on the same shard, and
// the router's Owner oracle agrees with where requests actually go.
func TestStickyPlacement(t *testing.T) {
	shards, rt := fleet(t, "a", "b", "c")
	req := coestapi.Request{System: "tcpip", Packets: 6}
	owner := rt.Owner("tcpip", 6)
	for i := 0; i < 8; i++ {
		rec, resp := postEstimate(t, rt, req)
		if resp == nil {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if resp.Shard != owner {
			t.Fatalf("request %d landed on %s, owner is %s", i, resp.Shard, owner)
		}
	}
	total := int64(0)
	for _, s := range shards {
		if s.name != owner && s.hits.Load() != 0 {
			t.Fatalf("non-owner shard %s served %d requests", s.name, s.hits.Load())
		}
		total += s.hits.Load()
	}
	if total != 8 {
		t.Fatalf("fleet served %d requests, want 8", total)
	}
}

// TestFailoverOnDeadShard: killing the owner moves the design to a ring
// successor without a client-visible failure.
func TestFailoverOnDeadShard(t *testing.T) {
	shards, rt := fleet(t, "a", "b", "c")
	owner := rt.Owner("tcpip", 6)
	for _, s := range shards {
		if s.name == owner {
			s.srv.Close()
		}
	}
	rec, resp := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6})
	if resp == nil {
		t.Fatalf("failover request failed: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Shard == owner {
		t.Fatalf("dead shard %s answered", owner)
	}
}

// TestHealthProbeSkipsUnready: after a probe round marks a shard unready
// (draining /readyz), requests route straight to the successor without
// burning an attempt on it.
func TestHealthProbeSkipsUnready(t *testing.T) {
	shards, rt := fleet(t, "a", "b", "c")
	owner := rt.Owner("tcpip", 6)
	var ownerStub *stubShard
	for _, s := range shards {
		if s.name == owner {
			ownerStub = s
		}
	}
	ownerStub.ready.Store(false)
	rt.CheckNow(context.Background())
	rec, resp := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Shard == owner {
		t.Fatal("unready shard still served")
	}
	if ownerStub.hits.Load() != 0 {
		t.Fatalf("unready shard saw %d estimate hits", ownerStub.hits.Load())
	}
	// Recovery: the next probe round brings it back.
	ownerStub.ready.Store(true)
	rt.CheckNow(context.Background())
	if _, resp := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6}); resp == nil || resp.Shard != owner {
		t.Fatal("recovered shard did not rejoin the rotation")
	}
}

// TestOverloadRetriesOwnerNotNeighbors: 429s back off and retry the same
// shard. Failing over an overloaded design would cold-compile it on the
// neighbor — load must never migrate placement.
func TestOverloadRetriesOwnerNotNeighbors(t *testing.T) {
	shards, rt := fleet(t, "a", "b", "c")
	owner := rt.Owner("tcpip", 6)
	var ownerStub *stubShard
	for _, s := range shards {
		if s.name == owner {
			ownerStub = s
		}
	}
	var rejects atomic.Int64
	rejects.Store(2) // two 429s, then succeed
	ownerStub.mode.Store(func(w http.ResponseWriter, r *http.Request) bool {
		if rejects.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(coestapi.ErrorResponse{
				Version: coestapi.Version,
				Error:   coestapi.ErrorInfo{Code: coestapi.CodeOverloaded, Message: "queue full"},
			})
			return true
		}
		return false
	})
	rec, resp := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Shard != owner {
		t.Fatalf("overload moved the design to %s; owner is %s", resp.Shard, owner)
	}
	for _, s := range shards {
		if s.name != owner && s.hits.Load() != 0 {
			t.Fatalf("overload leaked onto shard %s", s.name)
		}
	}
	if got := ownerStub.hits.Load(); got != 3 {
		t.Fatalf("owner saw %d attempts, want 3 (two 429s + success)", got)
	}
}

// TestExhaustedOverloadRelays429: when every retry meets 429, the client
// gets the shard's own overload envelope (with Retry-After), not a 5xx.
func TestExhaustedOverloadRelays429(t *testing.T) {
	shards, rt := fleet(t, "a", "b", "c")
	owner := rt.Owner("tcpip", 6)
	for _, s := range shards {
		if s.name == owner {
			s.mode.Store(func(w http.ResponseWriter, r *http.Request) bool {
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				_ = json.NewEncoder(w).Encode(coestapi.ErrorResponse{
					Version: coestapi.Version,
					Error:   coestapi.ErrorInfo{Code: coestapi.CodeOverloaded, Message: "queue full", RetryAfterMS: 1000},
				})
				return true
			})
		}
	}
	rec, _ := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", rec.Header().Get("Retry-After"))
	}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != coestapi.CodeOverloaded {
		t.Fatalf("body %s (err %v)", rec.Body.String(), err)
	}
}

// TestHedgingRacesSuccessor: a slow-but-alive owner is hedged onto the ring
// successor after HedgeAfter, and the fast answer wins.
func TestHedgingRacesSuccessor(t *testing.T) {
	shards := make([]*stubShard, 3)
	cfgShards := make([]Shard, 3)
	for i, n := range []string{"a", "b", "c"} {
		shards[i] = newStubShard(n)
		defer shards[i].srv.Close()
		cfgShards[i] = Shard{Name: n, URL: shards[i].srv.URL}
	}
	rt, err := New(Config{
		Shards: cfgShards, Retries: 1, RetryBackoff: 5 * time.Millisecond,
		HedgeAfter: 30 * time.Millisecond, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	owner := rt.Owner("tcpip", 6)
	for _, s := range shards {
		if s.name == owner {
			stall := s
			s.mode.Store(func(w http.ResponseWriter, r *http.Request) bool {
				select {
				case <-time.After(3 * time.Second):
				case <-r.Context().Done():
				}
				_ = stall
				w.WriteHeader(http.StatusGatewayTimeout)
				return true
			})
		}
	}
	start := time.Now()
	rec, resp := postEstimate(t, rt, coestapi.Request{System: "tcpip", Packets: 6})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Shard == owner {
		t.Fatal("stalled owner answered")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("hedged answer took %v — hedge did not fire", took)
	}
}

// TestVersionNegotiationAtRouter: an unknown major, like an unknown
// endpoint, is rejected at the edge without spending a shard round trip.
func TestVersionNegotiationAtRouter(t *testing.T) {
	shards, rt := fleet(t, "a", "b")
	rec, _ := postEstimate(t, rt, coestapi.Request{Version: "v2", System: "tcpip"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != coestapi.CodeUnsupportedVersion {
		t.Fatalf("body %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader([]byte(`{"requests":[{}]}`))))
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusNotFound || err != nil || env.Error.Code != coestapi.CodeNotFound {
		t.Fatalf("POST /batch: status %d, body %s", rec.Code, rec.Body.String())
	}
	for _, s := range shards {
		if s.hits.Load() != 0 {
			t.Fatalf("shard %s was consulted for a request rejected at the edge", s.name)
		}
	}
}

// TestOversizedBodiesRefusedAtRouter: a body over coestapi.MaxBodyBytes on
// any routed endpoint is answered at the edge with 413 and the bad_request
// envelope, without a shard round trip.
func TestOversizedBodiesRefusedAtRouter(t *testing.T) {
	shards, rt := fleet(t, "a", "b")
	huge := []byte(`{"system":"` + strings.Repeat("a", coestapi.MaxBodyBytes) + `"}`)
	for _, path := range []string{"/estimate", "/snapshot", "/restore"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(huge)))
		var env coestapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusRequestEntityTooLarge ||
			err != nil || env.Error.Code != coestapi.CodeBadRequest {
			t.Fatalf("POST %s: status %d, body %s", path, rec.Code, rec.Body.String())
		}
	}
	for _, s := range shards {
		if s.hits.Load() != 0 {
			t.Fatalf("shard %s was consulted for an oversized body", s.name)
		}
	}
}

// TestReadyzReflectsFleet: the router is routable while at least one shard
// is, and unroutable when none are.
func TestReadyzReflectsFleet(t *testing.T) {
	shards, rt := fleet(t, "a", "b")
	get := func() int {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("readyz = %d with healthy shards", got)
	}
	for _, s := range shards {
		s.ready.Store(false)
	}
	rt.CheckNow(context.Background())
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with no healthy shards, want 503", got)
	}
}
