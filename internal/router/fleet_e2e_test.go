package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ecachesync"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest/coestapi"
)

// TestFleetEndToEnd drives the full acceptance scenario on a real 3-shard
// fleet: three serve.Server instances behind one router, sharing the
// router's energy-cache tier over HTTP.
//
//  1. The same design routed twice lands on the same shard (the ring
//     owner) and compiles exactly once fleet-wide.
//  2. A snapshot of the owner's warm session restores into the other
//     shards, each of which compiles the design once.
//  3. Energy-cache paths learned on the owner reduce ISS calls on a
//     different shard after one sync round through the shared tier.
//  4. Killing the owner mid-load yields ring failover onto the warm
//     standby — never a client-visible 5xx, never a recompile.
func TestFleetEndToEnd(t *testing.T) {
	// The shards need the router's URL for cache sync before the router can
	// exist (it needs their URLs first), so the router front door goes up
	// early with a swappable handler.
	var front atomic.Value // http.Handler
	frontTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := front.Load().(http.Handler); ok {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "router starting", http.StatusServiceUnavailable)
	}))
	defer frontTS.Close()

	names := []string{"alpha", "beta", "gamma"}
	servers := make(map[string]*serve.Server, len(names))
	backends := make(map[string]*httptest.Server, len(names))
	shards := make([]router.Shard, 0, len(names))
	for _, name := range names {
		srv := serve.New(serve.Config{
			ShardName:          name,
			ECacheStore:        &ecachesync.HTTPStore{URL: frontTS.URL + "/ecache/sync"},
			ECacheSyncInterval: time.Hour, // sync rounds driven explicitly below
		})
		ts := httptest.NewServer(srv)
		servers[name] = srv
		backends[name] = ts
		shards = append(shards, router.Shard{Name: name, URL: ts.URL})
	}
	defer func() {
		for _, ts := range backends {
			ts.Close()
		}
	}()

	rt, err := router.New(router.Config{
		Shards:        shards,
		Retries:       3,
		RetryBackoff:  5 * time.Millisecond,
		ProbeInterval: time.Hour, // health driven explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	front.Store(http.Handler(rt))
	rt.CheckNow(context.Background())

	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	sw0, hw0 := sw.Value(), hw.Value()

	post := func(path string, v any) (int, *coestapi.Response, []byte) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(frontTS.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil, raw
		}
		var out coestapi.Response
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v in %s", path, err, raw)
		}
		return resp.StatusCode, &out, raw
	}

	// --- 1: sticky placement + compile-once ---------------------------------
	const packets = 5
	owner := rt.Owner("", packets)
	req := coestapi.Request{Packets: packets}
	for i := 0; i < 2; i++ {
		code, resp, raw := post("/estimate", req)
		if code != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, code, raw)
		}
		if resp.Shard != owner {
			t.Fatalf("estimate %d landed on %q, ring owner is %q", i, resp.Shard, owner)
		}
		if wantWarm := i > 0; resp.Warm != wantWarm {
			t.Fatalf("estimate %d: warm=%v, want %v", i, resp.Warm, wantWarm)
		}
	}
	if d := sw.Value() - sw0; d != 1 {
		t.Fatalf("two routed estimates cost %d software compiles fleet-wide, want exactly 1", d)
	}
	if d := hw.Value() - hw0; d != 1 {
		t.Fatalf("two routed estimates cost %d hardware syntheses fleet-wide, want exactly 1", d)
	}

	// --- 2: snapshot the owner, restore the standbys (one compile each) ----
	snapBody, _ := json.Marshal(coestapi.SnapshotRequest{Packets: packets})
	snapResp, err := http.Post(frontTS.URL+"/snapshot", "application/json", bytes.NewReader(snapBody))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", snapResp.StatusCode, blob)
	}
	for _, name := range names {
		if name == owner {
			continue
		}
		resp, err := http.Post(backends[name].URL+"/restore", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restore into %s: status %d: %s", name, resp.StatusCode, body)
		}
	}
	if sw.Value()-sw0 != 3 || hw.Value()-hw0 != 3 {
		t.Fatalf("after restoring both standbys: sw %d, hw %d deltas, want 3/3",
			sw.Value()-sw0, hw.Value()-hw0)
	}

	// --- 3: learn paths on the owner, replicate through the shared tier -----
	ereq := coestapi.Request{Packets: packets, Points: []coestapi.PointSpec{{ECache: true}}}
	var issFirst uint64
	for i := 0; i < 4; i++ {
		code, resp, raw := post("/estimate", ereq)
		if code != http.StatusOK || resp.Points[0].Error != "" {
			t.Fatalf("learning run %d: status %d: %s", i, code, raw)
		}
		if resp.Shard != owner {
			t.Fatalf("learning run %d landed on %q, want owner %q", i, resp.Shard, owner)
		}
		if i == 0 {
			issFirst = resp.Points[0].ISSCalls
		}
		t.Logf("learning run %d: shard %s iss %d total %v", i, resp.Shard, resp.Points[0].ISSCalls, resp.Points[0].TotalJ)
	}
	if issFirst == 0 {
		t.Fatal("first ecache run reported zero ISS calls; nothing to accelerate")
	}
	ctx := context.Background()
	if err := servers[owner].ECacheSyncNow(ctx); err != nil {
		t.Fatalf("owner push: %v", err)
	}
	for _, name := range names {
		if name == owner {
			continue
		}
		if err := servers[name].ECacheSyncNow(ctx); err != nil {
			t.Fatalf("standby %s pull: %v", name, err)
		}
	}

	// --- 4: kill the owner mid-load; the fleet absorbs it --------------------
	backends[owner].Close()
	for i := 0; i < 4; i++ {
		code, resp, raw := post("/estimate", ereq)
		if code >= 500 {
			t.Fatalf("post-kill request %d: client-visible %d: %s", i, code, raw)
		}
		if code != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d: %s", i, code, raw)
		}
		if resp.Shard == owner {
			t.Fatalf("post-kill request %d answered by dead shard %q", i, owner)
		}
		if !resp.Warm {
			t.Fatalf("post-kill request %d cold on %q; the snapshot standby must be warm", i, resp.Shard)
		}
		t.Logf("post-kill run %d: shard %s iss %d total %v", i, resp.Shard, resp.Points[0].ISSCalls, resp.Points[0].TotalJ)
		if resp.Points[0].ISSCalls >= issFirst {
			t.Fatalf("post-kill request %d on %q ran the ISS %d times, owner's cold run took %d; the synced cache must cut that",
				i, resp.Shard, resp.Points[0].ISSCalls, issFirst)
		}
	}
	if sw.Value()-sw0 != 3 || hw.Value()-hw0 != 3 {
		t.Fatalf("failover recompiled: sw %d, hw %d deltas, want 3/3",
			sw.Value()-sw0, hw.Value()-hw0)
	}
}
