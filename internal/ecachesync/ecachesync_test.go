package ecachesync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/stats"
	"repro/internal/units"
)

func key(m int, p uint64) ecache.Key {
	return ecache.Key{Machine: m, Path: cfsm.PathKey(p)}
}

func testScope() Scope {
	return Scope{Design: 42, Role: "sw", Params: ecache.DefaultParams()}
}

// statsOf returns (n, mean, variance) of a key's energy entry, or zeros.
func statsOf(c *ecache.Cache, k ecache.Key) (uint64, float64, float64) {
	e := c.Entry(k)
	if e == nil {
		return 0, 0, 0
	}
	return e.Energy.N(), e.Energy.Mean(), e.Energy.Variance()
}

// TestFleetMergeMatchesSharedCache: statistics accumulated on two synced
// shards must equal (to float tolerance) what one shared cache would hold.
func TestFleetMergeMatchesSharedCache(t *testing.T) {
	ctx := context.Background()
	store := NewMemory()
	scope := testScope()
	a := ecache.New(scope.Params)
	b := ecache.New(scope.Params)
	ya := New(store, time.Hour)
	yb := New(store, time.Hour)
	if err := ya.Attach(ctx, scope, a); err != nil {
		t.Fatal(err)
	}
	if err := yb.Attach(ctx, scope, b); err != nil {
		t.Fatal(err)
	}

	ref := ecache.New(scope.Params)
	obs := []struct {
		shard *ecache.Cache
		k     ecache.Key
		e     float64
		cyc   uint64
	}{
		{a, key(0, 1), 1.0e-9, 10},
		{a, key(0, 1), 1.1e-9, 11},
		{b, key(0, 1), 0.9e-9, 9},
		{a, key(1, 2), 5.0e-9, 50},
		{b, key(1, 3), 7.0e-9, 70},
		{b, key(1, 2), 5.2e-9, 52},
	}
	for _, o := range obs {
		o.shard.Update(o.k, units.Energy(o.e), o.cyc)
		ref.Update(o.k, units.Energy(o.e), o.cyc)
	}
	// Two rounds: after the first, each shard's local evidence is global;
	// after the second, each shard has pulled the other's contribution.
	for i := 0; i < 2; i++ {
		if err := ya.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		if err := yb.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []ecache.Key{key(0, 1), key(1, 2), key(1, 3)} {
		wn, wm, wv := statsOf(ref, k)
		for name, c := range map[string]*ecache.Cache{"a": a, "b": b} {
			gn, gm, gv := statsOf(c, k)
			if gn != wn {
				t.Fatalf("shard %s key %v: n=%d want %d", name, k, gn, wn)
			}
			if math.Abs(gm-wm) > 1e-12*math.Abs(wm)+1e-30 {
				t.Fatalf("shard %s key %v: mean=%g want %g", name, k, gm, wm)
			}
			if math.Abs(gv-wv) > 1e-9*math.Abs(wv)+1e-30 {
				t.Fatalf("shard %s key %v: var=%g want %g", name, k, gv, wv)
			}
		}
	}
}

// TestNoDoubleCounting: syncing repeatedly without new observations must
// not inflate sample counts — the echo-free property of the delta protocol.
func TestNoDoubleCounting(t *testing.T) {
	ctx := context.Background()
	store := NewMemory()
	scope := testScope()
	c := ecache.New(scope.Params)
	y := New(store, time.Hour)
	c.Update(key(0, 7), 2e-9, 20)
	c.Update(key(0, 7), 2e-9, 20)
	if err := y.Attach(ctx, scope, c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := y.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n, _, _ := statsOf(c, key(0, 7)); n != 2 {
		t.Fatalf("n=%d after idle syncs, want 2", n)
	}
	// And local evidence accumulated between syncs still counts exactly once.
	c.Update(key(0, 7), 2e-9, 20)
	for i := 0; i < 3; i++ {
		if err := y.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n, _, _ := statsOf(c, key(0, 7)); n != 3 {
		t.Fatalf("n=%d, want 3", n)
	}
}

// TestPullOnMiss: a cache attached cold must immediately hold the fleet's
// accumulated statistics, ready to serve without local observations.
func TestPullOnMiss(t *testing.T) {
	ctx := context.Background()
	store := NewMemory()
	scope := testScope()
	warm := ecache.New(scope.Params)
	yw := New(store, time.Hour)
	if err := yw.Attach(ctx, scope, warm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm.Update(key(0, 9), 3e-9, 30)
	}
	if err := yw.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	cold := ecache.New(scope.Params)
	yc := New(store, time.Hour)
	if err := yc.Attach(ctx, scope, cold); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cold.Lookup(key(0, 9)); !ok {
		t.Fatal("cold cache did not inherit a ready path from the store")
	}
}

// downStore rejects the first downN Sync calls without applying anything —
// a store that is unreachable, then recovers.
type downStore struct {
	inner *Memory
	downN int
}

func (d *downStore) Sync(ctx context.Context, scope Scope, node string, pushes []Push) ([]ecache.PathStat, error) {
	if d.downN > 0 {
		d.downN--
		return nil, errors.New("store down")
	}
	return d.inner.Sync(ctx, scope, node, pushes)
}

// TestNoLossOnStoreFailure: rounds failed while the store is down must not
// lose observations — the syncer keeps them queued and delivers them once
// the store recovers.
func TestNoLossOnStoreFailure(t *testing.T) {
	ctx := context.Background()
	scope := testScope()
	mem := NewMemory()
	store := &downStore{inner: mem, downN: 2}
	c := ecache.New(scope.Params)
	c.Update(key(2, 5), 4e-9, 40)

	y := New(store, time.Hour)
	if err := y.Attach(ctx, scope, c); err == nil {
		t.Fatal("attach against a dead store reported success")
	}
	if err := y.SyncNow(ctx); err == nil {
		t.Fatal("sync against a dead store reported success")
	}
	if err := y.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mem.Paths(scope); got != 1 {
		t.Fatalf("store holds %d paths after recovery, want 1", got)
	}
	global, err := mem.Sync(ctx, scope, "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(global) != 1 || global[0].Energy.N != 1 {
		t.Fatalf("store state %+v, want one path with n=1", global)
	}
	if n, _, _ := statsOf(c, key(2, 5)); n != 1 {
		t.Fatalf("local n=%d after recovery, want 1", n)
	}
}

// lossyStore applies every push but pretends the response was lost for the
// first failN calls — the failure mode that forces the syncer to retry a
// push the store has already counted.
type lossyStore struct {
	inner *Memory
	failN int
}

func (l *lossyStore) Sync(ctx context.Context, scope Scope, node string, pushes []Push) ([]ecache.PathStat, error) {
	global, err := l.inner.Sync(ctx, scope, node, pushes)
	if l.failN > 0 {
		l.failN--
		return nil, errors.New("response lost")
	}
	return global, err
}

// TestExactlyOnceOnLostResponse: a push whose response is lost is retried,
// and the store's (node, seq) dedup must count it exactly once — across
// several queued pushes with fresh observations arriving between failures.
func TestExactlyOnceOnLostResponse(t *testing.T) {
	ctx := context.Background()
	scope := testScope()
	mem := NewMemory()
	store := &lossyStore{inner: mem, failN: 2}
	c := ecache.New(scope.Params)
	k := key(2, 6)
	c.Update(k, 4e-9, 40)
	c.Update(k, 4e-9, 40)

	y := New(store, time.Hour)
	// Attach's push is applied but its response lost.
	if err := y.Attach(ctx, scope, c); err == nil {
		t.Fatal("attach with a lost response reported success")
	}
	// A second push queues behind the first; the round is again applied
	// (first push deduplicated, second counted) but the response lost.
	c.Update(k, 4e-9, 40)
	if err := y.SyncNow(ctx); err == nil {
		t.Fatal("sync with a lost response reported success")
	}
	// Recovery: both queued pushes retried, both deduplicated.
	if err := y.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	global, err := mem.Sync(ctx, scope, "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(global) != 1 || global[0].Energy.N != 3 {
		t.Fatalf("store state %+v, want one path with n=3", global)
	}
	if n, _, _ := statsOf(c, k); n != 3 {
		t.Fatalf("local n=%d, want 3", n)
	}
}

// TestHTTPStore: the HTTP transport preserves Sync semantics end to end.
func TestHTTPStore(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	srv := httptest.NewServer(Handler(mem))
	defer srv.Close()
	scope := testScope()
	remote := &HTTPStore{URL: srv.URL, Client: srv.Client()}

	c := ecache.New(scope.Params)
	c.Update(key(3, 11), 6e-9, 60)
	c.Update(key(3, 11), 6e-9, 60)
	y := New(remote, time.Hour)
	if err := y.Attach(ctx, scope, c); err != nil {
		t.Fatal(err)
	}
	if err := y.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	cold := ecache.New(scope.Params)
	yc := New(remote, time.Hour)
	if err := yc.Attach(ctx, scope, cold); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cold.Lookup(key(3, 11)); !ok {
		t.Fatal("HTTP-synced cold cache missing the warm path")
	}
}

// primedStore returns a store holding one real shard push under
// testScope(), from node "prime" with seq 1.
func primedStore(t testing.TB) *Memory {
	c := ecache.New(testScope().Params)
	c.Update(key(0, 1), 1.0e-9, 10)
	c.Update(key(0, 1), 1.1e-9, 11)
	c.Update(key(1, 2), 5.0e-9, 50)
	mem := NewMemory()
	if _, err := mem.Sync(context.Background(), testScope(), "prime", []Push{{Seq: 1, Paths: c.ExportDelta()}}); err != nil {
		t.Fatal(err)
	}
	return mem
}

// dumpAll returns every scope's global state.
func dumpAll(m *Memory) map[Scope][]ecache.PathStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Scope][]ecache.PathStat, len(m.scopes))
	for s, c := range m.scopes {
		out[s] = c.Dump()
	}
	return out
}

// postSync serves one sync body through h and returns the status code.
func postSync(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ecache/sync", bytes.NewReader(body)))
	return rec.Code
}

// syncBody renders one push of paths from node as a sync request body.
func syncBody(t *testing.T, node string, seq uint64, paths ...ecache.PathStat) []byte {
	t.Helper()
	b, err := json.Marshal(syncWire{Scope: testScope(), Node: node, Pushes: []Push{{Seq: seq, Paths: paths}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSyncRefusesPoison: a push whose statistics fail validation, or would
// merge into statistics that do, is a 400 that merges nothing and does not
// advance the node's seq; the same node's valid push at that seq still
// merges.
func TestSyncRefusesPoison(t *testing.T) {
	mem := primedStore(t)
	h := Handler(mem)
	before := dumpAll(mem)
	valid := stats.RunningState{N: 1, Mean: 2e-9, Min: 2e-9, Max: 2e-9}
	ps := func(k ecache.Key, energy stats.RunningState) ecache.PathStat {
		return ecache.PathStat{Key: k, Energy: energy, Cycles: stats.RunningState{N: energy.N, Mean: 20, Min: 20, Max: 20}}
	}
	huge := func(mean float64) stats.RunningState {
		return stats.RunningState{N: 1, Mean: mean, Min: mean, Max: mean}
	}
	for _, tc := range []struct {
		name  string
		paths []ecache.PathStat
	}{
		{"negative M2", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: 2, Mean: 1e-9, M2: -1e-30, Min: 1e-9, Max: 1e-9})}},
		{"min above max", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: 2, Mean: 1e-9, Min: 2e-9, Max: 1e-9})}},
		{"empty state with values", []ecache.PathStat{ps(key(0, 1), stats.RunningState{Mean: 1e-9, Min: 1e-9, Max: 1e-9})}},
		// A valid path first: the refusal is all or nothing.
		{"invalid after valid", []ecache.PathStat{ps(key(2, 3), valid), ps(key(0, 1), stats.RunningState{N: 1, M2: -1})}},
		{"means of ±1e308", []ecache.PathStat{ps(key(2, 3), huge(1e308)), ps(key(2, 3), huge(-1e308))}},
		{"count wraps", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: math.MaxUint64, Mean: 1e-9, Min: 1e-9, Max: 1e-9})}},
		{"one sample with M2", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: 1, M2: 1})}},
		{"mean outside its range", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: 3, Mean: 3e-9, M2: 1e-19, Min: 1e-9, Max: 2e-9})}},
		{"M2 above Popoviciu's bound", []ecache.PathStat{ps(key(0, 1), stats.RunningState{N: 2, Mean: 1.5e-9, M2: 1e-18, Min: 1e-9, Max: 2e-9})}},
	} {
		if code := postSync(h, syncBody(t, "shard", 1, tc.paths...)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if after := dumpAll(mem); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refused push changed the store:\n got %+v\nwant %+v", tc.name, after, before)
		}
	}
	if code := postSync(h, syncBody(t, "shard", 1, ps(key(0, 1), valid))); code != http.StatusOK {
		t.Fatalf("valid push after the refusals: status %d, want 200", code)
	}
	global, err := mem.Sync(context.Background(), testScope(), "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range global {
		if g.Key == key(0, 1) && g.Energy.N != 3 {
			t.Fatalf("path %v holds n=%d after the valid push, want 3", g.Key, g.Energy.N)
		}
	}
}

// TestRefusedPushIsDropped: a push the store refuses as invalid is dropped
// by the syncer, not retried, so the scope's next valid push lands. The
// store is reached in memory and over HTTP; the poisons are a one-sample
// state with spread (refused by the store) and a NaN energy (which JSON
// cannot carry, so the HTTP client refuses it before sending).
func TestRefusedPushIsDropped(t *testing.T) {
	ctx := context.Background()
	for _, transport := range []string{"memory", "http"} {
		for _, poison := range []string{"one sample with M2", "NaN energy"} {
			name := transport + "/" + poison
			mem := NewMemory()
			var store Store = mem
			if transport == "http" {
				srv := httptest.NewServer(Handler(mem))
				defer srv.Close()
				store = &HTTPStore{URL: srv.URL, Client: srv.Client()}
			}
			scope := testScope()
			c := ecache.New(scope.Params)
			y := New(store, time.Hour)
			if err := y.Attach(ctx, scope, c); err != nil {
				t.Fatalf("%s: attach: %v", name, err)
			}
			switch poison {
			case "one sample with M2":
				// No local observation can produce it: queue it as a
				// buggy shard would have exported it.
				a := y.caches[0]
				a.nextSeq++
				a.unacked = append(a.unacked, Push{Seq: a.nextSeq, Paths: []ecache.PathStat{{
					Key:    key(0, 1),
					Energy: stats.RunningState{N: 1, M2: 1},
					Cycles: stats.RunningState{N: 1, Mean: 9, Min: 9, Max: 9},
				}}})
			case "NaN energy":
				c.Update(key(0, 1), units.Energy(math.NaN()), 9)
			}
			refused := mRefused.Value()
			if err := y.SyncNow(ctx); !errors.Is(err, ErrInvalidPush) {
				t.Fatalf("%s: poisoned round returned %v, want ErrInvalidPush", name, err)
			}
			if got := mRefused.Value() - refused; got != 1 {
				t.Errorf("%s: %d paths counted refused, want 1", name, got)
			}
			if n := mem.Paths(scope); n != 0 {
				t.Fatalf("%s: the refused push left %d paths in the store", name, n)
			}

			c.Update(key(2, 3), 4e-9, 40)
			if err := y.SyncNow(ctx); err != nil {
				t.Fatalf("%s: the valid push after the refusal: %v", name, err)
			}
			global := dumpAll(mem)[scope]
			if len(global) != 1 || global[0].Key != key(2, 3) || global[0].Energy.N != 1 {
				t.Fatalf("%s: store holds %+v, want the valid path alone", name, global)
			}
		}
	}
}
