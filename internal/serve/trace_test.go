package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest/coestapi"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestRequestTracingEndToEnd is the tracing acceptance test: one POST
// /estimate against a tracing server yields (a) a trace id on the response
// header and body, (b) a /debug/requests entry whose span tree covers the
// serving stages down to per-machine ISS and gate spans, (c) an access-log
// line carrying the same trace id, and (d) a Chrome-trace export of the
// request that is well-formed trace_event JSON.
func TestRequestTracingEndToEnd(t *testing.T) {
	var accessBuf bytes.Buffer
	_, ts := startServer(t, serve.Config{AccessLog: &accessBuf})

	code, hdr, resp := post(t, ts.URL, coestapi.Request{System: "tcpip", Packets: 2})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	id := hdr.Get(coestapi.TraceHeader)
	if id == "" {
		t.Fatalf("no %s response header", coestapi.TraceHeader)
	}
	if _, err := telemetry.ParseTraceID(id); err != nil {
		t.Fatalf("header trace id: %v", err)
	}
	if resp.TraceID != id {
		t.Fatalf("body trace id %q != header %q", resp.TraceID, id)
	}

	// (b) The ring lists the request, newest first.
	var summaries []map[string]any
	if code := getJSON(t, ts.URL+"/debug/requests", &summaries); code != http.StatusOK {
		t.Fatalf("/debug/requests: status %d", code)
	}
	if len(summaries) == 0 || summaries[0]["trace"] != id {
		t.Fatalf("ring does not lead with trace %s: %v", id, summaries)
	}

	var tr serve.RequestTrace
	if code := getJSON(t, ts.URL+"/debug/requests?trace="+id, &tr); code != http.StatusOK {
		t.Fatalf("trace detail: status %d", code)
	}
	if tr.Trace != id || tr.Status != http.StatusOK || tr.System != "tcpip" {
		t.Fatalf("trace detail: %+v", tr)
	}
	if tr.Points != 1 {
		t.Fatalf("trace metadata: points %d", tr.Points)
	}

	names := map[string]int{}
	byID := map[string]serve.SpanRecord{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
		byID[sp.Span] = sp
	}
	// The serving stages: root request, admission wait, session resolution
	// (with a cold compile below it), the batched sweep, and the response
	// encode — plus the estimator's own phases underneath.
	for _, want := range []string{
		"request", "admission", "session", "compile", "sweep",
		"batch", "point", "respond", "iss", "gate",
	} {
		if names[want] == 0 {
			t.Errorf("no %q span in trace (have %v)", want, names)
		}
	}
	var rootID string
	for _, sp := range tr.Spans {
		if sp.Name == "request" {
			rootID = sp.Span
		}
	}
	for _, sp := range tr.Spans {
		if sp.Span == rootID {
			if sp.Parent != "" {
				t.Errorf("root span has parent %s", sp.Parent)
			}
			continue
		}
		if sp.Parent == "" {
			t.Errorf("span %s %q has no parent", sp.Span, sp.Name)
		} else if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s %q parents under unknown span %s", sp.Span, sp.Name, sp.Parent)
		}
	}
	// Every captured span of a completed request must have ended.
	for _, sp := range tr.Spans {
		if sp.DurNS < 0 {
			t.Errorf("span %q never ended", sp.Name)
		}
	}

	// (c) The estimate's access line (the first; the /debug/requests GETs
	// above logged their own lines after it) carries the same trace id.
	var rec map[string]any
	line, _, _ := strings.Cut(strings.TrimSpace(accessBuf.String()), "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if rec["trace"] != id || rec["path"] != "/estimate" || rec["status"] != float64(200) {
		t.Fatalf("access record: %v", rec)
	}
	if rec["system"] != "tcpip" || rec["points"] != float64(1) {
		t.Fatalf("access record estimation metadata: %v", rec)
	}

	// (d) Chrome export: well-formed trace_event JSON with the request's
	// spans as complete slices.
	chResp, err := http.Get(ts.URL + "/debug/requests?trace=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chResp.Body.Close()
	if chResp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: status %d", chResp.StatusCode)
	}
	if cd := chResp.Header.Get("Content-Disposition"); !strings.Contains(cd, ".json") {
		t.Errorf("chrome export Content-Disposition: %q", cd)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chResp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	slices := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices[ev.Name]++
		}
	}
	for _, want := range []string{"request", "session", "sweep", "iss"} {
		if slices[want] == 0 {
			t.Errorf("chrome export has no %q slice (have %v)", want, slices)
		}
	}

	// A warm repeat records "reuse" instead of "compile".
	if code, hdr, _ := post(t, ts.URL, coestapi.Request{System: "tcpip", Packets: 2}); code != http.StatusOK {
		t.Fatalf("warm repeat: status %d", code)
	} else {
		var warm serve.RequestTrace
		if code := getJSON(t, ts.URL+"/debug/requests?trace="+hdr.Get(coestapi.TraceHeader), &warm); code != http.StatusOK {
			t.Fatalf("warm trace detail: status %d", code)
		}
		var sawReuse, sawCompile bool
		for _, sp := range warm.Spans {
			switch sp.Name {
			case "reuse":
				sawReuse = true
			case "compile":
				sawCompile = true
			}
		}
		if !sawReuse {
			t.Error("warm request trace has no reuse span")
		}
		if sawCompile {
			t.Error("warm request trace recompiled")
		}
		if !warm.Warm {
			t.Error("warm request trace not flagged warm")
		}
	}
}

// Inbound trace headers are adopted: the caller's id becomes this node's
// trace id and the root span parents under the caller's span.
func TestInboundTraceHeadersAdopted(t *testing.T) {
	_, ts := startServer(t, serve.Config{})

	want := telemetry.NewTraceID().String()
	body, _ := json.Marshal(coestapi.Request{System: "tcpip", Packets: 2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(coestapi.TraceHeader, want)
	req.Header.Set(coestapi.ParentSpanHeader, "feedc0de")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(coestapi.TraceHeader); got != want {
		t.Fatalf("server minted %s, want adopted %s", got, want)
	}

	var tr serve.RequestTrace
	if code := getJSON(t, ts.URL+"/debug/requests?trace="+want, &tr); code != http.StatusOK {
		t.Fatalf("adopted trace not in ring: status %d", code)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "request" && sp.Parent != "feedc0de" {
			t.Fatalf("root span parent %q, want feedc0de", sp.Parent)
		}
	}
}

// The slow-capture ring retains slow requests independently of the main
// ring, and flags them in the trace and access log.
func TestSlowRequestCapture(t *testing.T) {
	var accessBuf bytes.Buffer
	_, ts := startServer(t, serve.Config{
		SlowThreshold: time.Nanosecond, // everything is slow
		AccessLog:     &accessBuf,
	})
	code, hdr, _ := post(t, ts.URL, coestapi.Request{System: "tcpip", Packets: 2})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	id := hdr.Get(coestapi.TraceHeader)

	var slow []map[string]any
	if code := getJSON(t, ts.URL+"/debug/requests?slow=1", &slow); code != http.StatusOK {
		t.Fatalf("slow ring: status %d", code)
	}
	found := false
	for _, s := range slow {
		if s["trace"] == id {
			found = true
			if s["slow"] != true {
				t.Errorf("slow ring entry not flagged slow: %v", s)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in the slow ring: %v", id, slow)
	}
	if !strings.Contains(accessBuf.String(), `"slow":true`) {
		t.Errorf("access line not flagged slow: %s", accessBuf.String())
	}
}

// TraceRing < 0 turns tracing off entirely: no header, no ring, and the
// debug endpoint says so.
func TestTracingDisabled(t *testing.T) {
	_, ts := startServer(t, serve.Config{TraceRing: -1})
	code, hdr, resp := post(t, ts.URL, coestapi.Request{System: "tcpip", Packets: 2})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	if h := hdr.Get(coestapi.TraceHeader); h != "" {
		t.Fatalf("untraced response carries %s: %q", coestapi.TraceHeader, h)
	}
	if resp.TraceID != "" {
		t.Fatalf("untraced response body carries trace id %q", resp.TraceID)
	}
	r, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests with tracing off: status %d, want 404", r.StatusCode)
	}
}
