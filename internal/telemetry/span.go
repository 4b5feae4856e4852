package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/units"
)

// Request tracing. A trace is one serve request (or one CLI run): a tree of
// spans — admission wait, session lookup, compile, per-point sweep, ISS and
// gate phases, ecache lookups — each emitted as a KindSpanBegin/KindSpanEnd
// event pair into the same sink fan-out the simulation events use, so one
// request renders as a flame graph in the Chrome-trace sink next to the
// simulated-time lanes.
//
// Span timestamps are wall-clock nanoseconds relative to the trace epoch
// (the moment the scope was created), not simulated time: a trace answers
// "where did this request spend its wall time", the simulation lanes answer
// "where did the modeled system spend its energy".
//
// The layer follows the package's nil-is-off contract: a nil *SpanScope is
// a valid disabled scope, every method on it is a no-op, and a context
// without a scope starts no spans and allocates nothing — the hot path
// stays allocation-free when tracing is disabled.

// TraceID identifies one request trace: 128 random bits, rendered as 32
// lowercase hex digits (the W3C trace-context id shape), carried on the
// X-Coest-Trace-Id header so a front-end router can stitch cross-node
// traces.
type TraceID [2]uint64

// NewTraceID returns a fresh random trace id.
func NewTraceID() TraceID {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the span
		// id generator rather than panicking in a telemetry layer.
		return TraceID{nextSpanID(), nextSpanID()}
	}
	id := TraceID{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	if id.IsZero() {
		id[1] = 1
	}
	return id
}

// IsZero reports whether the id is the zero (absent) trace id.
func (t TraceID) IsZero() bool { return t[0] == 0 && t[1] == 0 }

// String renders the id as 32 hex digits.
func (t TraceID) String() string { return fmt.Sprintf("%016x%016x", t[0], t[1]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("telemetry: trace id %q: want 32 hex digits, have %d", s, len(s))
	}
	if _, err := fmt.Sscanf(s, "%16x%16x", &t[0], &t[1]); err != nil {
		return t, fmt.Errorf("telemetry: trace id %q: %v", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("telemetry: trace id %q is zero", s)
	}
	return t, nil
}

// SpanContext locates one span inside a trace: the trace id, this span's
// id, and the parent span's id (zero at the root).
type SpanContext struct {
	Trace  TraceID
	Span   uint64
	Parent uint64
}

// spanIDs hands out process-unique span ids: an atomic counter seeded
// randomly so ids from different processes in a future fleet are unlikely
// to collide.
var spanIDs atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		spanIDs.Store(binary.BigEndian.Uint64(b[:]) &^ (1 << 63)) // keep headroom
	}
}

func nextSpanID() uint64 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}

// SpanScope is the tracing capability carried through a request: the tracer
// the span events go to, the current span context (the parent of spans
// started from this scope), and the trace's wall-clock epoch. A nil
// *SpanScope is a valid disabled scope.
type SpanScope struct {
	trc   *Tracer
	sc    SpanContext
	epoch int64 // wall-clock trace origin, unix nanoseconds
}

// NewSpanScope returns the root scope of a new trace over sink. The sink is
// used as given — wrap it with Synchronized before handing one scope to
// concurrent goroutines. A nil sink or zero trace id yields a nil scope.
func NewSpanScope(sink Sink, id TraceID) *SpanScope {
	if sink == nil || id.IsZero() {
		return nil
	}
	return &SpanScope{trc: NewTracer(sink), sc: SpanContext{Trace: id}, epoch: time.Now().UnixNano()}
}

// WithParent returns a copy of the scope whose spans will parent under the
// given remote span id — how an inbound X-Coest-Span-Id header grafts this
// node's trace under the caller's span. A zero id returns the scope as is.
func (s *SpanScope) WithParent(span uint64) *SpanScope {
	if s == nil || span == 0 {
		return s
	}
	c := *s
	c.sc.Span = span
	return &c
}

// Context returns the scope's current span context (zero on nil).
func (s *SpanScope) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Trace returns the scope's trace id (zero on nil).
func (s *SpanScope) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.sc.Trace
}

// Now returns the current wall clock in unix nanoseconds — the time base
// for Complete. Usable on a nil scope.
func (s *SpanScope) Now() int64 { return time.Now().UnixNano() }

// rel converts an absolute unix-nano wall time to the trace-relative
// timestamp span events carry.
func (s *SpanScope) rel(wall int64) units.Time { return units.Time(wall - s.epoch) }

func (s *SpanScope) emit(kind Kind, sc SpanContext, name, detail string, value int64, t units.Time, dur units.Time, cycles uint64, energy units.Energy) {
	s.trc.Emit(Event{
		Time:      t,
		Kind:      kind,
		Component: detail,
		Machine:   -1,
		Name:      name,
		Value:     value,
		Cycles:    cycles,
		Energy:    energy,
		Dur:       dur,
		Trace:     sc.Trace,
		Span:      sc.Span,
		Parent:    sc.Parent,
	})
}

// SpanMark is an open span handle for hot loops: a flat value struct, so
// Begin/End pairs on an enabled scope cost two event emissions and zero
// allocations, and on a disabled (nil) scope cost two nil checks.
type SpanMark struct {
	scope *SpanScope
	id    uint64
	start int64
}

// Begin opens a child span named name (detail is free-form context — a
// system name, a path) and returns its mark. On a nil scope it
// returns the zero mark, whose End is a no-op.
func (s *SpanScope) Begin(name, detail string) SpanMark {
	return s.BeginWith(name, detail, 0)
}

// BeginWith is Begin carrying an integer payload (a point index, a path
// key) on the span-begin event.
func (s *SpanScope) BeginWith(name, detail string, value int64) SpanMark {
	if s == nil {
		return SpanMark{}
	}
	now := time.Now().UnixNano()
	sc := SpanContext{Trace: s.sc.Trace, Span: nextSpanID(), Parent: s.sc.Span}
	s.emit(KindSpanBegin, sc, name, detail, value, s.rel(now), 0, 0, 0)
	return SpanMark{scope: s, id: sc.Span, start: now}
}

// End closes the span. Cycles and energy are optional estimator payload on
// the end event (zero when not applicable).
func (m SpanMark) End(cycles uint64, energy units.Energy) {
	s := m.scope
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	sc := SpanContext{Trace: s.sc.Trace, Span: m.id, Parent: s.sc.Span}
	s.emit(KindSpanEnd, sc, "", "", 0, s.rel(now), units.Time(now-m.start), cycles, energy)
}

// Instant records a zero-duration child span — a point occurrence worth a
// flame-graph tick, like an ecache hit — as an immediately paired
// begin/end.
func (s *SpanScope) Instant(name, detail string, value int64) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	sc := SpanContext{Trace: s.sc.Trace, Span: nextSpanID(), Parent: s.sc.Span}
	t := s.rel(now)
	s.emit(KindSpanBegin, sc, name, detail, value, t, 0, 0, 0)
	s.emit(KindSpanEnd, sc, "", "", 0, t, 0, 0, 0)
}

// Complete records a child span retroactively from an explicit start wall
// time (from Now) and duration — for phases whose busy time is accumulated
// across resumptions, like a gate-level engine pumped in chunks.
func (s *SpanScope) Complete(name, detail string, startWall, durNS int64, cycles uint64, energy units.Energy) {
	if s == nil {
		return
	}
	sc := SpanContext{Trace: s.sc.Trace, Span: nextSpanID(), Parent: s.sc.Span}
	t := s.rel(startWall)
	s.emit(KindSpanBegin, sc, name, detail, 0, t, 0, 0, 0)
	s.emit(KindSpanEnd, sc, "", "", 0, t+units.Time(durNS), units.Time(durNS), cycles, energy)
}

// Span is an open span started through the context API. The nil *Span is a
// valid closed-over no-op, so call sites end unconditionally:
//
//	ctx, sp := telemetry.StartSpan(ctx, "sweep")
//	defer sp.End()
type Span struct {
	scope SpanScope // copy of the parent scope with sc = this span's context
	start int64
}

// End closes the span.
func (sp *Span) End() { sp.EndWith(0, 0) }

// EndWith closes the span with estimator payload on the end event.
func (sp *Span) EndWith(cycles uint64, energy units.Energy) {
	if sp == nil {
		return
	}
	now := time.Now().UnixNano()
	sp.scope.emit(KindSpanEnd, sp.scope.sc, "", "", 0, sp.scope.rel(now), units.Time(now-sp.start), cycles, energy)
}

// Context returns the span's context (zero on nil) — what goes out on the
// wire when calling another node under this span.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.scope.sc
}

// Scope returns the span's scope — the parent for hot-loop child spans
// (Begin/Instant/Complete). Nil on a nil span.
func (sp *Span) Scope() *SpanScope {
	if sp == nil {
		return nil
	}
	return &sp.scope
}

// spanScopeKey is the context key the scope travels under.
type spanScopeKey struct{}

// ContextWithSpanScope returns ctx carrying the scope. A nil scope returns
// ctx unchanged, keeping the disabled path allocation-free downstream.
func ContextWithSpanScope(ctx context.Context, s *SpanScope) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanScopeKey{}, s)
}

// SpanScopeFrom extracts the scope from ctx, or nil when the request is not
// traced. The single ctx.Value lookup is the whole disabled-path cost.
func SpanScopeFrom(ctx context.Context) *SpanScope {
	s, _ := ctx.Value(spanScopeKey{}).(*SpanScope)
	return s
}

// StartSpan opens a span named name under the scope in ctx and returns a
// derived context under which children parent to the new span. Without a
// scope in ctx it returns (ctx, nil) — zero allocations, nil-safe End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return StartSpanWith(ctx, name, "", 0)
}

// StartSpanWith is StartSpan with a detail string and integer payload on
// the span-begin event.
func StartSpanWith(ctx context.Context, name, detail string, value int64) (context.Context, *Span) {
	parent := SpanScopeFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	now := time.Now().UnixNano()
	sc := SpanContext{Trace: parent.sc.Trace, Span: nextSpanID(), Parent: parent.sc.Span}
	parent.emit(KindSpanBegin, sc, name, detail, value, parent.rel(now), 0, 0, 0)
	sp := &Span{scope: SpanScope{trc: parent.trc, sc: sc, epoch: parent.epoch}, start: now}
	return context.WithValue(ctx, spanScopeKey{}, &sp.scope), sp
}
