package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/units"
)

// recorder collects emitted events in order. Not synchronized: wrap in
// Synchronized before sharing across goroutines.
type recorder struct{ events []Event }

func (r *recorder) Emit(ev Event) { r.events = append(r.events, ev) }
func (r *recorder) Close() error  { return nil }

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("fresh trace id is zero")
	}
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip: %v != %v", back, id)
	}
	for _, bad := range []string{
		"",
		"abc",
		strings.Repeat("0", 32), // zero id
		strings.Repeat("zz", 16),
		strings.Repeat("0", 33),
	} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Fatalf("two fresh ids collide: %v", a)
	}
}

// The whole span layer must be a no-op on its disabled (nil) forms: CLI and
// server hot paths call these unconditionally.
func TestNilSpanScopeIsNoOp(t *testing.T) {
	if NewSpanScope(nil, NewTraceID()) != nil {
		t.Fatal("NewSpanScope(nil sink) should be nil")
	}
	if NewSpanScope(&recorder{}, TraceID{}) != nil {
		t.Fatal("NewSpanScope(zero id) should be nil")
	}
	var s *SpanScope
	if s.WithParent(7) != nil {
		t.Fatal("nil.WithParent should stay nil")
	}
	if s.Context() != (SpanContext{}) || !s.Trace().IsZero() {
		t.Fatal("nil scope context/trace should be zero")
	}
	m := s.Begin("iss", "m0") // must not panic
	m.End(10, units.Nanojoule)
	s.Instant("ecache-hit", "m0", 1)
	s.Complete("gate", "m0", s.Now(), 100, 0, 0)

	ctx, sp := StartSpan(context.Background(), "sweep")
	if sp != nil {
		t.Fatal("StartSpan without a scope should return a nil span")
	}
	sp.End() // must not panic
	sp.EndWith(1, units.Nanojoule)
	if sp.Scope() != nil || sp.Context() != (SpanContext{}) {
		t.Fatal("nil span scope/context should be zero")
	}
	if SpanScopeFrom(ctx) != nil {
		t.Fatal("scope materialized out of nowhere")
	}
}

// Tracing disabled must cost nothing on the heap: StartSpan on a scopeless
// context and SpanMark begin/end on a nil scope are on the serving and
// simulation hot paths.
func TestStartSpanNoScopeZeroAllocs(t *testing.T) {
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpanWith(ctx, "sweep", "tcpip", 64)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("StartSpan without scope allocates %v per op, want 0", allocs)
	}
	var s *SpanScope
	if allocs := testing.AllocsPerRun(1000, func() {
		m := s.BeginWith("iss", "m0", 1)
		m.End(42, units.Nanojoule)
		s.Instant("ecache-hit", "m0", 1)
	}); allocs != 0 {
		t.Fatalf("nil-scope span marks allocate %v per op, want 0", allocs)
	}
}

func TestSpanTreeParentage(t *testing.T) {
	rec := &recorder{}
	id := NewTraceID()
	ctx := ContextWithSpanScope(context.Background(), NewSpanScope(rec, id))

	ctx, root := StartSpanWith(ctx, "request", "POST /estimate", 0)
	sweepCtx, sweep := StartSpan(ctx, "sweep")
	scope := SpanScopeFrom(sweepCtx)
	if scope == nil {
		t.Fatal("sweep context lost its scope")
	}
	m := scope.BeginWith("iss", "m0", 0x2b)
	m.End(42, units.Nanojoule)
	scope.Instant("ecache-hit", "m0", 1)
	start := scope.Now()
	scope.Complete("gate", "m1", start, 1500, 7, 2*units.Nanojoule)
	sweep.EndWith(42, units.Nanojoule)
	root.End()

	evs := rec.events
	if len(evs) != 10 { // 5 spans x begin+end
		t.Fatalf("got %d events, want 10", len(evs))
	}
	// Every event belongs to the trace; begins pair with ends.
	open := map[uint64]Event{}
	parents := map[string]uint64{} // name -> parent span id
	ids := map[string]uint64{}     // name -> span id
	for _, ev := range evs {
		if ev.Trace != id {
			t.Fatalf("event %v carries trace %v, want %v", ev, ev.Trace, id)
		}
		switch ev.Kind {
		case KindSpanBegin:
			if _, dup := open[ev.Span]; dup {
				t.Fatalf("span %x begun twice", ev.Span)
			}
			open[ev.Span] = ev
			parents[ev.Name] = ev.Parent
			ids[ev.Name] = ev.Span
		case KindSpanEnd:
			if _, ok := open[ev.Span]; !ok {
				t.Fatalf("end without begin for span %x", ev.Span)
			}
			delete(open, ev.Span)
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d spans never ended", len(open))
	}
	if parents["request"] != 0 {
		t.Fatalf("root parent = %x, want 0", parents["request"])
	}
	if parents["sweep"] != ids["request"] {
		t.Fatalf("sweep parent = %x, want request %x", parents["sweep"], ids["request"])
	}
	for _, child := range []string{"iss", "ecache-hit", "gate"} {
		if parents[child] != ids["sweep"] {
			t.Fatalf("%s parent = %x, want sweep %x", child, parents[child], ids["sweep"])
		}
	}
	// The retroactive Complete carries its duration and payload on the end
	// event.
	var gateEnd Event
	for _, ev := range evs {
		if ev.Kind == KindSpanEnd && ev.Span == ids["gate"] {
			gateEnd = ev
		}
	}
	if gateEnd.Dur != 1500 || gateEnd.Cycles != 7 || gateEnd.Energy != 2*units.Nanojoule {
		t.Fatalf("gate end = %+v, want dur 1500, cycles 7, 2 nJ", gateEnd)
	}
}

// WithParent grafts spans under a remote caller's span id — the inbound
// X-Coest-Parent-Span path.
func TestSpanScopeWithParent(t *testing.T) {
	rec := &recorder{}
	scope := NewSpanScope(rec, NewTraceID()).WithParent(0xfeed)
	m := scope.Begin("request", "")
	m.End(0, 0)
	if len(rec.events) != 2 {
		t.Fatalf("got %d events, want 2", len(rec.events))
	}
	if rec.events[0].Parent != 0xfeed {
		t.Fatalf("parent = %x, want feed", rec.events[0].Parent)
	}
}

// Span events render as flame-graph slices in the Chrome sink: one complete
// "X" slice per begin/end pair, on span lanes separate from the simulation
// lanes, with concurrent siblings on distinct lanes.
func TestChromeSinkRendersSpans(t *testing.T) {
	var buf strings.Builder
	sink := NewChromeSink(&buf)
	id := NewTraceID()
	scope := NewSpanScope(sink, id)
	ctx := ContextWithSpanScope(context.Background(), scope)
	ctx, root := StartSpan(ctx, "request")
	// Two concurrent children of the root: begun before either ends.
	inner := SpanScopeFrom(ctx)
	a := inner.Begin("sweep", "a")
	b := inner.Begin("sweep", "b")
	a.End(0, 0)
	b.End(0, 0)
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("chrome trace with spans is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices []int // tids of X slices on the span pid
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices = append(slices, ev.TID)
		}
	}
	if len(slices) != 3 {
		t.Fatalf("got %d span slices, want 3:\n%s", len(slices), buf.String())
	}
	// The concurrent siblings must not share a lane with each other.
	if slices[0] == slices[1] {
		t.Fatalf("concurrent siblings share lane %d:\n%s", slices[0], buf.String())
	}
}
