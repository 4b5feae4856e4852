package serve_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

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
	// Over the packet bound: refused before anything is built.
	check("/estimate", coestapi.Request{Packets: 4097, DeadlineMS: 50}, http.StatusBadRequest, coestapi.CodeBadRequest)
	huge := json.RawMessage(`{"system":"` + strings.Repeat("a", 1<<20) + `"}`)
	check("/estimate", huge, http.StatusRequestEntityTooLarge, coestapi.CodeBadRequest)
	check("/snapshot", coestapi.SnapshotRequest{System: "tcpip", Packets: 99}, http.StatusNotFound, coestapi.CodeNotFound)
	check("/nonesuch", struct{}{}, http.StatusNotFound, coestapi.CodeNotFound)
	check("/batch", struct {
		Requests []coestapi.Request `json:"requests"`
	}{[]coestapi.Request{{Packets: 2}}}, http.StatusNotFound, coestapi.CodeNotFound)
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
