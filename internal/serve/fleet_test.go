package serve_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ecache"
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
	// Over the point bound: refused before admission.
	check("/estimate", coestapi.Request{Packets: 2, Points: make([]coestapi.PointSpec, 257)}, http.StatusBadRequest, coestapi.CodeBadRequest)
	huge := json.RawMessage(`{"system":"` + strings.Repeat("a", 1<<20) + `"}`)
	check("/estimate", huge, http.StatusRequestEntityTooLarge, coestapi.CodeBadRequest)
	check("/restore", huge, http.StatusRequestEntityTooLarge, coestapi.CodeBadRequest)
	check("/snapshot", coestapi.SnapshotRequest{System: "tcpip", Packets: 99}, http.StatusNotFound, coestapi.CodeNotFound)
	check("/nonesuch", struct{}{}, http.StatusNotFound, coestapi.CodeNotFound)
	check("/batch", struct {
		Requests []coestapi.Request `json:"requests"`
	}{[]coestapi.Request{{Packets: 2}}}, http.StatusNotFound, coestapi.CodeNotFound)
}

// TestSnapshotRestoreOverHTTP: a session snapshotted from one server and
// restored into a fresh one compiles the design once at the restore — one
// software compile and one synthesis per HW module — and is then warm from
// its very first request, which compiles nothing; the restored energy-cache
// state carries over.
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

	code, restoredBody := postSnapshot(t, clone.URL, blob)
	if code != http.StatusOK {
		t.Fatalf("restore: status %d: %s", code, restoredBody)
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
	if sw.Value()-sw0 != 1 || hw.Value()-hw0 != 1 || macro.Value() != macro0 {
		t.Fatalf("restore cost sw %d, hw %d, macro %d; want 1, 1, 0",
			sw.Value()-sw0, hw.Value()-hw0, macro.Value()-macro0)
	}

	sw0, hw0 = sw.Value(), hw.Value()
	code, _, first := post(t, clone.URL, req)
	if code != http.StatusOK {
		t.Fatalf("restored estimate: status %d", code)
	}
	if !first.Warm {
		t.Fatal("first request on the restored clone must be warm")
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || macro.Value() != macro0 {
		t.Fatalf("first request on the restored clone compiled: sw %d→%d, hw %d→%d, macro %d→%d",
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

// postSnapshot posts a snapshot envelope to /restore.
func postSnapshot(t *testing.T, url string, env []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/restore", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// snapPayload mirrors the gob payload of a version-2 session snapshot,
// which follows the snapshot's 10-byte magic and version header.
type snapPayload struct {
	HWWidth  int
	Machines []struct {
		Name        string
		Transitions int
	}
	Caches []struct {
		Params ecache.Params
		SW, HW []ecache.PathStat
	}
}

// TestRestoreRejectsCorruptSnapshot: a snapshot whose cache statistics no
// run could produce, that is of another design or HW width, or that is of
// format version 1 is refused at POST /restore with the 400 error envelope,
// and the shard goes on serving the design.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	_, origin := startServer(t, serve.Config{})
	snapshot := func(system string, packets int) coestapi.SnapshotEnvelope {
		t.Helper()
		req := coestapi.Request{System: system, Packets: packets, Points: []coestapi.PointSpec{{ECache: true}}}
		if code, _, _ := post(t, origin.URL, req); code != http.StatusOK {
			t.Fatalf("origin estimate of %s failed: %d", system, code)
		}
		code, _, blob := postRaw(t, origin.URL, "/snapshot", coestapi.SnapshotRequest{System: system, Packets: packets})
		if code != http.StatusOK {
			t.Fatalf("snapshot of %s: status %d: %s", system, code, blob)
		}
		var env coestapi.SnapshotEnvelope
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env
	}
	tcpip, prodcons := snapshot("tcpip", 2), snapshot("prodcons", 0)

	// damage re-encodes the tcpip snapshot's payload after fn edits it.
	const header = 10
	damage := func(fn func(p *snapPayload)) []byte {
		t.Helper()
		var p snapPayload
		if err := gob.NewDecoder(bytes.NewReader(tcpip.Blob[header:])).Decode(&p); err != nil {
			t.Fatal(err)
		}
		if len(p.Caches) == 0 || len(p.Caches[0].SW) == 0 {
			t.Fatal("snapshot carries no learned SW paths")
		}
		fn(&p)
		var buf bytes.Buffer
		buf.Write(tcpip.Blob[:header])
		if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1 := append([]byte(nil), tcpip.Blob...)
	v1[8], v1[9] = 1, 0

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"NaN energy mean", damage(func(p *snapPayload) { p.Caches[0].SW[0].Energy.Mean = math.NaN() }), "non-finite"},
		{"negative M2", damage(func(p *snapPayload) { p.Caches[0].SW[0].Energy.M2 = -1 }), "negative M2"},
		{"min above max", damage(func(p *snapPayload) {
			e := &p.Caches[0].SW[0].Energy
			e.Min = e.Max + 1
		}), "above max"},
		{"NaN cache threshold", damage(func(p *snapPayload) { p.Caches[0].Params.ThreshVariance = math.NaN() }), "NaN"},
		{"another design", prodcons.Blob, "another design"},
		{"HW width 0", damage(func(p *snapPayload) { p.HWWidth = 0 }), "HW width"},
		{"version 1", v1, "format v1 not supported"},
	}
	_, clone := startServer(t, serve.Config{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := tcpip
			env.Blob = c.blob
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(&env); err != nil {
				t.Fatal(err)
			}
			code, out := postSnapshot(t, clone.URL, body.Bytes())
			var e coestapi.ErrorResponse
			if code != http.StatusBadRequest || json.Unmarshal(out, &e) != nil ||
				e.Error.Code != coestapi.CodeBadRequest || !strings.Contains(e.Error.Message, c.want) {
				t.Fatalf("restore: status %d: %s, want 400 naming %q", code, out, c.want)
			}
			if code, _, _ := post(t, clone.URL, coestapi.Request{Packets: 2}); code != http.StatusOK {
				t.Fatalf("estimate after a refused restore: status %d", code)
			}
		})
	}
}
