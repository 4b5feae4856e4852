package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
)

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, req coestapi.Request) (int, http.Header, *coestapi.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, httpResp.Body)
		return httpResp.StatusCode, httpResp.Header, nil
	}
	var resp coestapi.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return httpResp.StatusCode, httpResp.Header, &resp
}

// TestWarmSessionBitIdentical is the serving acceptance test: the first
// request compiles a session, a repeat request reuses it with zero
// recompilation/resynthesis/recharacterization (telemetry counters stay
// flat) and returns energies bit-identical to a cold direct Estimate.
func TestWarmSessionBitIdentical(t *testing.T) {
	_, ts := startServer(t, serve.Config{})

	req := coestapi.Request{System: "tcpip", Packets: 2}
	code, _, first := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if first.Warm {
		t.Fatal("first request cannot be warm")
	}
	if len(first.Points) != 1 || first.Points[0].Error != "" {
		t.Fatalf("first response: %+v", first)
	}

	// Cold reference run through the library API.
	p := coest.DefaultTCPIPParams()
	p.Packets = 2
	cold, err := coest.Estimate(context.Background(), coest.TCPIP(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Points[0].TotalJ; got != cold.Total.Joules() {
		t.Fatalf("served energy %v != cold estimate %v", got, cold.Total.Joules())
	}
	if first.Points[0].ISSCalls != cold.ISSCalls {
		t.Fatalf("served ISS calls %d != cold %d", first.Points[0].ISSCalls, cold.ISSCalls)
	}

	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	macro := telemetry.Default.Counter("coest_macro_characterizations_total", "")
	sw0, hw0, macro0 := sw.Value(), hw.Value(), macro.Value()

	code, _, second := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if !second.Warm {
		t.Fatal("repeat request must hit the warm session")
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || macro.Value() != macro0 {
		t.Fatalf("warm request resynthesized: sw %d→%d, hw %d→%d, macro %d→%d",
			sw0, sw.Value(), hw0, hw.Value(), macro0, macro.Value())
	}
	if second.Points[0].TotalJ != cold.Total.Joules() ||
		second.Points[0].SWJ != cold.SWEnergy.Joules() ||
		second.Points[0].HWJ != cold.HWEnergy.Joules() {
		t.Fatalf("warm energies differ from cold estimate: %+v", second.Points[0])
	}
}

// TestWarmECacheFewerISSCalls: an energy-cached point rides the session's
// persistent cache — the repeat request replays paths instead of re-running
// the ISS.
func TestWarmECacheFewerISSCalls(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	req := coestapi.Request{System: "tcpip", Packets: 2, Points: []coestapi.PointSpec{{ECache: true}}}
	code, _, first := post(t, ts.URL, req)
	if code != http.StatusOK || first.Points[0].Error != "" {
		t.Fatalf("first: %d %+v", code, first)
	}
	code, _, second := post(t, ts.URL, req)
	if code != http.StatusOK || second.Points[0].Error != "" {
		t.Fatalf("second: %d %+v", code, second)
	}
	if second.Points[0].ISSCalls >= first.Points[0].ISSCalls {
		t.Fatalf("cache-warm request made %d ISS calls, first made %d",
			second.Points[0].ISSCalls, first.Points[0].ISSCalls)
	}
}

// TestBatchCoalescing: one request's points run as one batch — ordered
// results, per-point errors, no fail-fast.
func TestBatchCoalescing(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	req := coestapi.Request{Packets: 2, Points: []coestapi.PointSpec{
		{},
		{DMASize: 64},
		{DMASize: -1}, // invalid: estimator rejects, point-local error
		{Macro: true},
	}}
	code, _, resp := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("points = %d", len(resp.Points))
	}
	for i, pt := range resp.Points {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
	}
	if resp.Points[0].Error != "" || resp.Points[1].Error != "" || resp.Points[3].Error != "" {
		t.Fatalf("good points failed: %+v", resp.Points)
	}
	if resp.Points[2].Error == "" {
		t.Fatal("invalid DMA size must fail its own point")
	}
	if resp.Points[0].TotalJ == resp.Points[1].TotalJ {
		t.Fatal("DMA refinement must change the estimate")
	}
	if resp.Points[3].ISSCalls != 0 {
		t.Fatal("macro-modeled point must not invoke the ISS")
	}
}

// TestBackpressure: with one worker and no queue, a request arriving while
// the worker is busy is shed with 429 and a Retry-After hint — even when
// its session and the macro tables are warm, so a cheaper approximate
// answer could be had.
func TestBackpressure(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1, Queue: -1, RetryAfter: 2 * time.Second})

	warm := coestapi.Request{Packets: 2, Points: []coestapi.PointSpec{{Macro: true}}}
	if code, _, resp := post(t, ts.URL, warm); code != http.StatusOK || resp.Points[0].Error != "" {
		t.Fatalf("warmup: status %d, resp %+v", code, resp)
	}

	// A long request to occupy the single admission slot. A fast probe can
	// win the slot race and shed the long request instead, so relaunch it
	// until a probe observes the saturated server.
	slow, _ := json.Marshal(coestapi.Request{Packets: 150})
	slowc := make(chan int, 4)
	launch := func() {
		go func() {
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(slow))
			if err != nil {
				slowc <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			slowc <- resp.StatusCode
		}()
	}
	launch()

	var header http.Header
	var shed []byte
	deadline := time.Now().Add(20 * time.Second)
	for shed == nil && time.Now().Before(deadline) {
		select {
		case code := <-slowc:
			switch code {
			case http.StatusOK, http.StatusTooManyRequests:
				launch() // finished or lost the slot race: occupy it again
			default:
				t.Fatalf("slow request: status %d", code)
			}
		default:
		}
		code, h, body := postRaw(t, ts.URL, "/estimate", coestapi.Request{Packets: 2})
		switch code {
		case http.StatusTooManyRequests:
			header, shed = h, body
		case http.StatusOK:
			// A probe that got through must carry the reference estimate
			// it asked for, which runs the ISS.
			var resp coestapi.Response
			if err := json.Unmarshal(body, &resp); err != nil || len(resp.Points) != 1 || resp.Points[0].ISSCalls == 0 {
				t.Fatalf("probe answered %s, not the reference estimate", body)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if shed == nil {
		t.Fatal("no request was shed while the worker was saturated")
	}
	if header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", header.Get("Retry-After"))
	}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(shed, &env); err != nil || env.Error.Code != coestapi.CodeOverloaded {
		t.Fatalf("shed body = %s", shed)
	}
}

// TestDeadlineAborts: a request deadline cuts the simulation mid-run and
// surfaces as 504.
func TestDeadlineAborts(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	start := time.Now()
	code, _, _ := post(t, ts.URL, coestapi.Request{Packets: 500, DeadlineMS: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Fatalf("deadline abort took %v", took)
	}
}

// TestClientCancelAbortsPromptly: when the client goes away, the in-flight
// simulation aborts within one event quantum — observed as a fast drain.
func TestClientCancelAbortsPromptly(t *testing.T) {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(coestapi.Request{Packets: 500})
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(httpReq)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the long run start
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned no error")
	}

	start := time.Now()
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after cancel: %v (in-flight run did not abort promptly)", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("drain after cancel took %v; the aborted run must not run to completion", took)
	}
}

// TestDrainRejectsAndCompletes: a draining server turns new work away with
// 503 while queued work completes; Drain is idempotent. /healthz stays 200
// throughout (the process is alive), /readyz flips 503 at Unready (the
// lame-duck signal) and stays 503 through the drain.
func TestDrainRejectsAndCompletes(t *testing.T) {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}

	// Lame-duck: readiness drops before any request is refused.
	s.Unready()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Unready: %d, want 503", code)
	}
	if code, _, _ := post(t, ts.URL, coestapi.Request{Packets: 2}); code != http.StatusOK {
		t.Fatalf("estimate while unready (not draining): status %d, want 200", code)
	}
	s.Ready()
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after Ready: %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	if code, _, _ := post(t, ts.URL, coestapi.Request{Packets: 2}); code != http.StatusServiceUnavailable {
		t.Fatalf("estimate while draining: status %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not routability)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
}

// TestBadRequests: malformed input fails fast with 4xx, before touching the
// worker pool.
func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, serve.Config{})

	if code, _, _ := post(t, ts.URL, coestapi.Request{System: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("unknown system: status %d", code)
	}
	if code, _, _ := post(t, ts.URL, coestapi.Request{System: "prodcons", Packets: 3}); code != http.StatusBadRequest {
		t.Fatalf("packets on prodcons: status %d", code)
	}
	if code, _, _ := post(t, ts.URL, coestapi.Request{DeadlineMS: -1}); code != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}

	httpResp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d", httpResp.StatusCode)
	}
}

// TestLegacyBackendFieldIgnored: v1 clients may still send fields the
// service no longer reads — an estimator "backend" name from before the
// single estimator path, or "no_degraded" from before overload always shed
// with 429 (testdata holds one such /estimate body each). Each must get a
// 200 with energies bit-identical to the same body without the field.
func TestLegacyBackendFieldIgnored(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	for _, tc := range []struct{ file, field string }{
		{"testdata/legacy-backend-request.json", "backend"},
		{"testdata/legacy-no-degraded-request.json", "no_degraded"},
	} {
		legacy, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(legacy, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields[tc.field]; !ok {
			t.Fatalf("%s carries no %s field", tc.file, tc.field)
		}
		delete(fields, tc.field)
		plain, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}

		var resps [2]coestapi.Response
		for i, body := range [][]byte{plain, legacy} {
			code, _, out := postRaw(t, ts.URL, "/estimate", json.RawMessage(body))
			if code != http.StatusOK {
				t.Fatalf("body %s: status %d (%s)", body, code, out)
			}
			if err := json.Unmarshal(out, &resps[i]); err != nil {
				t.Fatal(err)
			}
		}
		ref, got := resps[0].Points, resps[1].Points
		if len(ref) != 2 || len(got) != len(ref) {
			t.Fatalf("%s: points: %d without the field, %d with it", tc.field, len(ref), len(got))
		}
		for i := range ref {
			r, p := ref[i], got[i]
			if math.Float64bits(r.TotalJ) != math.Float64bits(p.TotalJ) ||
				math.Float64bits(r.SWJ) != math.Float64bits(p.SWJ) ||
				math.Float64bits(r.HWJ) != math.Float64bits(p.HWJ) ||
				r.ISSCalls != p.ISSCalls || r.SimulatedNS != p.SimulatedNS {
				t.Fatalf("point %d differs with the legacy %s field:\nwithout %+v\nwith    %+v", i, tc.field, r, p)
			}
		}
	}
}

// TestNonTCPIPSystems: the other case studies serve too, each with its own
// session.
func TestNonTCPIPSystems(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	for _, name := range []string{"prodcons", "automotive"} {
		code, _, resp := post(t, ts.URL, coestapi.Request{System: name})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if resp.System != name || len(resp.Points) != 1 || resp.Points[0].Error != "" {
			t.Fatalf("%s: %+v", name, resp)
		}
		if resp.Points[0].TotalJ <= 0 {
			t.Fatalf("%s: no energy", name)
		}
	}
}
