package serve_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest/coestapi"
)

// postRaw posts any JSON body to an endpoint and returns status + body.
func postRaw(t *testing.T, url, path string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// TestVersionNegotiation: an unknown major is a 400 with the
// unsupported_version envelope; current-major minors pass.
func TestVersionNegotiation(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	code, _, body := postRaw(t, ts.URL, "/estimate", coestapi.Request{Version: "v2", Packets: 2})
	if code != http.StatusBadRequest {
		t.Fatalf("v2 status = %d, want 400", code)
	}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != coestapi.CodeUnsupportedVersion {
		t.Fatalf("v2 body = %s", body)
	}
	code, _, _ = postRaw(t, ts.URL, "/estimate", coestapi.Request{Version: "v1.3", Packets: 2})
	if code != http.StatusOK {
		t.Fatalf("v1.3 status = %d, want 200", code)
	}
}

// TestErrorEnvelopes: every rejection path speaks the JSON envelope with a
// stable machine-readable code.
func TestErrorEnvelopes(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	check := func(path string, v any, wantStatus int, wantCode string) {
		t.Helper()
		code, _, body := postRaw(t, ts.URL, path, v)
		if code != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", path, code, wantStatus, body)
		}
		var env coestapi.ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != wantCode {
			t.Fatalf("%s: body %s, want code %s", path, body, wantCode)
		}
	}
	check("/estimate", coestapi.Request{System: "nonesuch"}, http.StatusBadRequest, coestapi.CodeBadRequest)
	check("/snapshot", coestapi.SnapshotRequest{System: "tcpip", Packets: 99}, http.StatusNotFound, coestapi.CodeNotFound)
	check("/nonesuch", struct{}{}, http.StatusNotFound, coestapi.CodeNotFound)
}

// TestDegradedFastTier: an overloaded node with a warm session and warm
// macro tables answers 200 Degraded from the macro tier — ISS never runs,
// the error budget rides every point — while a NoDegraded request is shed
// with the 429 envelope.
func TestDegradedFastTier(t *testing.T) {
	_, ts := startServer(t, serve.Config{Workers: 1, Queue: -1, RetryAfter: time.Second})

	// Warm the session and the process-wide macro tables through the full
	// tier first; the degraded tier never characterizes on its own.
	code, _, warm := post(t, ts.URL, coestapi.Request{Packets: 3, Points: []coestapi.PointSpec{{Macro: true}}})
	if code != http.StatusOK || warm.Points[0].Error != "" {
		t.Fatalf("warmup: status %d, resp %+v", code, warm)
	}

	// Saturate the single worker with long requests and probe until a probe
	// observes the saturated server. The slow request may itself be shed or
	// answered degraded when a probe wins the slot race; relaunch until done.
	slow, _ := json.Marshal(coestapi.Request{Packets: 150, NoDegraded: true})
	slowc := make(chan int, 8)
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

	var degraded *coestapi.Response
	var shedStatus int
	var shedBody []byte
	deadline := time.Now().Add(30 * time.Second)
	for (degraded == nil || shedStatus == 0) && time.Now().Before(deadline) {
		select {
		case code := <-slowc:
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Fatalf("slow request: status %d", code)
			}
			launch()
		default:
		}
		if degraded == nil {
			code, _, body := postRaw(t, ts.URL, "/estimate", coestapi.Request{Packets: 3})
			if code == http.StatusOK {
				var resp coestapi.Response
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Degraded {
					degraded = &resp
				}
			}
		}
		if shedStatus == 0 {
			code, _, body := postRaw(t, ts.URL, "/estimate", coestapi.Request{Packets: 3, NoDegraded: true})
			if code == http.StatusTooManyRequests {
				shedStatus, shedBody = code, body
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	if degraded == nil {
		t.Fatal("no probe was answered from the degraded fast tier")
	}
	if degraded.DegradedReason != "overloaded" {
		t.Fatalf("DegradedReason = %q", degraded.DegradedReason)
	}
	if !degraded.Warm {
		t.Fatal("degraded answer must ride the warm session")
	}
	if len(degraded.Points) != 1 {
		t.Fatalf("degraded points: %+v", degraded.Points)
	}
	pt := degraded.Points[0]
	if pt.Error != "" {
		t.Fatalf("degraded point failed: %s", pt.Error)
	}
	if pt.ISSCalls != 0 {
		t.Fatalf("degraded answer ran the ISS %d times; the macro tier must not", pt.ISSCalls)
	}
	if pt.Budget == nil {
		t.Fatal("degraded answer carries no error budget")
	}

	if shedStatus == 0 {
		t.Fatal("no NoDegraded probe was shed while saturated")
	}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(shedBody, &env); err != nil || env.Error.Code != coestapi.CodeOverloaded {
		t.Fatalf("shed body = %s", shedBody)
	}
}

// TestSnapshotRestoreOverHTTP: a session snapshotted from one server and
// restored into a fresh one is warm from its very first request — zero
// compiles, zero syntheses, zero characterizations — and the restored
// energy-cache state carries over.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	_, origin := startServer(t, serve.Config{})

	// Warm the origin: two ecache runs accumulate learned path state.
	req := coestapi.Request{Packets: 4, Points: []coestapi.PointSpec{{ECache: true}}}
	for i := 0; i < 2; i++ {
		if code, _, _ := post(t, origin.URL, req); code != http.StatusOK {
			t.Fatalf("origin warmup %d failed: %d", i, code)
		}
	}
	code, _, blob := postRaw(t, origin.URL, "/snapshot", coestapi.SnapshotRequest{Packets: 4})
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, blob)
	}
	if len(blob) == 0 {
		t.Fatal("empty snapshot")
	}

	_, clone := startServer(t, serve.Config{})
	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	macro := telemetry.Default.Counter("coest_macro_characterizations_total", "")
	sw0, hw0, macro0 := sw.Value(), hw.Value(), macro.Value()

	resp, err := http.Post(clone.URL+"/restore", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	restoredBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, restoredBody)
	}
	var restored coestapi.RestoreResponse
	if err := json.Unmarshal(restoredBody, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.System != "tcpip" || restored.Packets != 4 {
		t.Fatalf("restored identity %+v", restored)
	}
	if restored.Paths == 0 {
		t.Fatal("restored session carried no energy-cache paths")
	}

	code, _, first := post(t, clone.URL, req)
	if code != http.StatusOK {
		t.Fatalf("restored estimate: status %d", code)
	}
	if !first.Warm {
		t.Fatal("first request on the restored clone must be warm")
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || macro.Value() != macro0 {
		t.Fatalf("restore compiled: sw %d→%d, hw %d→%d, macro %d→%d",
			sw0, sw.Value(), hw0, hw.Value(), macro0, macro.Value())
	}

	// And the restored energies match the origin's for the same request.
	codeO, _, onOrigin := post(t, origin.URL, req)
	if codeO != http.StatusOK {
		t.Fatalf("origin re-estimate: status %d", codeO)
	}
	if first.Points[0].TotalJ != onOrigin.Points[0].TotalJ {
		t.Fatalf("restored energy %v != origin %v", first.Points[0].TotalJ, onOrigin.Points[0].TotalJ)
	}
}

// TestRestoreRejectsCorruptNetlist: a snapshot whose gate netlist reads a
// net the netlist does not have is refused at POST /restore with the 400
// error envelope, and the shard goes on serving that design — the corrupt
// netlist never reaches a simulation.
func TestRestoreRejectsCorruptNetlist(t *testing.T) {
	_, origin := startServer(t, serve.Config{})
	req := coestapi.Request{Packets: 2}
	if code, _, _ := post(t, origin.URL, req); code != http.StatusOK {
		t.Fatalf("origin estimate failed: %d", code)
	}
	code, _, blob := postRaw(t, origin.URL, "/snapshot", coestapi.SnapshotRequest{Packets: 2})
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, blob)
	}

	// Point one gate of every HW module at net 9999, behind the session
	// snapshot's own magic and version header.
	var env coestapi.SnapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	const header = 10
	var snap struct{ Artifacts core.ArtifactsState }
	if err := gob.NewDecoder(bytes.NewReader(env.Blob[header:])).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Artifacts.HW) == 0 {
		t.Fatal("snapshot carries no HW modules")
	}
	for _, ms := range snap.Artifacts.HW {
		ms.N.Gates[len(ms.N.Gates)-1].Ins[0] = 9999
	}
	var payload bytes.Buffer
	payload.Write(env.Blob[:header])
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	env.Blob = payload.Bytes()
	var corrupt bytes.Buffer
	if err := gob.NewEncoder(&corrupt).Encode(&env); err != nil {
		t.Fatal(err)
	}

	_, clone := startServer(t, serve.Config{})
	resp, err := http.Post(clone.URL+"/restore", "application/octet-stream", &corrupt)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e coestapi.ErrorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
		e.Error.Code != coestapi.CodeBadRequest || !strings.Contains(e.Error.Message, "out of range") {
		t.Fatalf("corrupt restore: status %d: %s", resp.StatusCode, body)
	}
	if code, _, _ := post(t, clone.URL, req); code != http.StatusOK {
		t.Fatalf("estimate after a refused restore: status %d", code)
	}
}

// TestBatchEndpoint: /batch runs independent entries with per-item
// isolation — one invalid entry fails alone.
func TestBatchEndpoint(t *testing.T) {
	_, ts := startServer(t, serve.Config{})
	breq := coestapi.BatchRequest{Requests: []coestapi.Request{
		{Packets: 2},
		{System: "nonesuch"},
		{Packets: 2, Points: []coestapi.PointSpec{{Macro: true}}},
	}}
	code, _, body := postRaw(t, ts.URL, "/batch", breq)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp coestapi.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("%d items, want 3", len(resp.Items))
	}
	if resp.Items[0].Error != nil || resp.Items[0].Response == nil {
		t.Fatalf("item 0: %+v", resp.Items[0])
	}
	if resp.Items[1].Error == nil || resp.Items[1].Error.Code != coestapi.CodeBadRequest {
		t.Fatalf("item 1: %+v", resp.Items[1])
	}
	if resp.Items[2].Response == nil || resp.Items[2].Response.Points[0].ISSCalls != 0 {
		t.Fatalf("item 2: %+v", resp.Items[2])
	}
}
