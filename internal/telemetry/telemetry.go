// Package telemetry is the observability layer of the co-estimation
// framework: a typed simulation event stream (replacing the stringly
// func(string) trace callback), a process-wide metrics registry of atomic
// counters/gauges/histograms exported over expvar and Prometheus text, a
// debug HTTP endpoint (/metrics + net/http/pprof) for profiling long
// sweeps, and a JSON run manifest recording what a run was and what it
// cost.
//
// The paper's value proposition is visibility into where energy goes —
// per-process breakdowns, power waveforms, acceleration hit rates. This
// package makes that visibility first-class: every master-level occurrence
// (reaction dispatch, estimator invocation, cache hit, bus grant) is a
// typed Event with its simulated timestamp, deliverable to any Sink —
// line-oriented text, JSONL, or a Chrome/Perfetto trace_event file that
// opens in a trace viewer with one lane per process. The stream reports
// what happened; the energy books are the co-simulation master's (core's
// report and its attribution summary), not rebuilt from events.
//
// The event hot path is allocation-free when no sink is attached: a nil
// *Tracer is a valid no-op tracer, Event is a flat value struct, and
// Tracer.Emit on nil returns before touching anything (guarded by a
// testing.AllocsPerRun test).
package telemetry

import (
	"fmt"

	"repro/internal/units"
)

// Kind discriminates the typed simulation events.
type Kind uint8

// Event kinds, one per master-level occurrence.
const (
	// KindReactionDispatched: a CFSM reaction was dispatched (SW: by the
	// RTOS onto the processor; HW: onto the block's engine).
	KindReactionDispatched Kind = iota
	// KindEventEmitted: a reaction emitted an output event.
	KindEventEmitted
	// KindISSCall: the instruction-set simulator executed a reaction.
	KindISSCall
	// KindGateEval: the gate-level simulator executed a reaction.
	KindGateEval
	// KindECacheHit: the energy cache served a path, skipping the simulator.
	KindECacheHit
	// KindECacheMiss: the energy cache missed; the simulator runs.
	KindECacheMiss
	// KindBusTransaction: the arbiter granted one DMA block transfer.
	KindBusTransaction
	// KindCompactionDispatch: a K-memory window was compacted and its
	// representative subset dispatched to the estimator.
	KindCompactionDispatch
	// KindDeadlineWarning: the run hit MaxSimTime with events still
	// scheduled (a truncation, not a natural finish).
	KindDeadlineWarning
	// KindShadowAudit: a reaction served from the energy cache or the
	// macro-model table was also run through the reference estimator (ISS
	// or gate-level) and the divergence recorded.
	KindShadowAudit
	// KindSpanBegin: a request-trace span opened. Span events carry
	// wall-clock time relative to the trace epoch in Time, not simulated
	// time (see span.go).
	KindSpanBegin
	// KindSpanEnd: a request-trace span closed; Dur is the span's
	// wall-clock duration.
	KindSpanEnd
)

var kindNames = [...]string{
	KindReactionDispatched: "reaction",
	KindEventEmitted:       "emit",
	KindISSCall:            "iss-call",
	KindGateEval:           "gate-eval",
	KindECacheHit:          "ecache-hit",
	KindECacheMiss:         "ecache-miss",
	KindBusTransaction:     "bus-txn",
	KindCompactionDispatch: "compaction",
	KindDeadlineWarning:    "deadline",
	KindShadowAudit:        "shadow",
	KindSpanBegin:          "span-begin",
	KindSpanEnd:            "span-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one typed simulation occurrence. It is a flat value struct —
// no pointers, no interfaces — so constructing and passing one never
// allocates, which keeps the no-sink hot path free.
//
// Field use by kind (unused fields are zero):
//
//	ReactionDispatched  Component (machine), Machine, Transition, Name
//	                    (transition name), Path, Cycles, Energy, Dur
//	EventEmitted        Component (machine), Machine, Name (port), Value
//	ISSCall             Component, Machine, Path, Cycles, Energy
//	GateEval            Component, Machine, Path, Cycles, Energy
//	ECacheHit/Miss      Component, Machine, Path
//	BusTransaction      Component ("bus"), Machine (master), Addr, Words,
//	                    Write, Dur, Energy
//	CompactionDispatch  Component ("bus"), Words (selected), Value (window
//	                    total), Energy (scaled window energy)
//	DeadlineWarning     Component ("master"), Value (live pending events)
//	ShadowAudit         Component (machine), Machine, Name (technique),
//	                    Path, Cycles (reference), Energy (reference),
//	                    Served (estimate under audit)
//	SpanBegin           Trace, Span, Parent, Name (span name), Component
//	                    (detail), Value; Time is trace-relative wall ns
//	SpanEnd             Trace, Span, Parent, Dur (wall ns), Cycles, Energy
type Event struct {
	Time units.Time // simulated timestamp
	Kind Kind

	Component  string // emitting component: machine name, "bus", "master"
	Machine    int    // machine / bus-master index, -1 when not applicable
	Transition int    // transition index (reactions)
	Name       string // transition or output-port name
	Path       uint64 // execution-path key (reactions, estimator calls)
	Value      int64  // emitted value / window size / pending count

	Cycles uint64       // estimator-reported cycle count
	Energy units.Energy // energy the occurrence cost
	Dur    units.Time   // duration where known (CPU phase, bus grant)

	Addr  uint32 // bus word-block start address (bytes)
	Words int    // bus words transferred / compaction selected count
	Write bool   // bus transfer direction

	Served units.Energy // shadow audit: the accelerated estimate under audit

	Trace  TraceID // request-trace id (span events)
	Span   uint64  // span id (span events)
	Parent uint64  // parent span id, 0 at the trace root (span events)
}

// String renders the event as one human-readable trace line (the format
// the legacy func(string) trace callback receives).
func (ev Event) String() string {
	prefix := fmt.Sprintf("%12v  ", ev.Time)
	switch ev.Kind {
	case KindReactionDispatched:
		return prefix + fmt.Sprintf("react %s t%d (%s) path %x", ev.Component, ev.Transition, ev.Name, ev.Path)
	case KindEventEmitted:
		return prefix + fmt.Sprintf("emit  %s.%s = %d", ev.Component, ev.Name, ev.Value)
	case KindISSCall:
		return prefix + fmt.Sprintf("iss   %s path %x: %d cycles, %v", ev.Component, ev.Path, ev.Cycles, ev.Energy)
	case KindGateEval:
		return prefix + fmt.Sprintf("gate  %s path %x: %d cycles, %v", ev.Component, ev.Path, ev.Cycles, ev.Energy)
	case KindECacheHit:
		return prefix + fmt.Sprintf("hit   %s path %x", ev.Component, ev.Path)
	case KindECacheMiss:
		return prefix + fmt.Sprintf("miss  %s path %x", ev.Component, ev.Path)
	case KindBusTransaction:
		dir := "rd"
		if ev.Write {
			dir = "wr"
		}
		return prefix + fmt.Sprintf("bus   m%d %s %d words @%#x in %v, %v", ev.Machine, dir, ev.Words, ev.Addr, ev.Dur, ev.Energy)
	case KindCompactionDispatch:
		return prefix + fmt.Sprintf("comp  window %d -> %d dispatched, %v", ev.Value, ev.Words, ev.Energy)
	case KindDeadlineWarning:
		return prefix + fmt.Sprintf("DEADLINE: truncated with %d events still scheduled", ev.Value)
	case KindShadowAudit:
		return prefix + fmt.Sprintf("shdw  %s path %x (%s): served %v, ref %v over %d cycles", ev.Component, ev.Path, ev.Name, ev.Served, ev.Energy, ev.Cycles)
	case KindSpanBegin:
		if ev.Component != "" {
			return prefix + fmt.Sprintf("sbeg  %s (%s) span %x < %x trace %v", ev.Name, ev.Component, ev.Span, ev.Parent, ev.Trace)
		}
		return prefix + fmt.Sprintf("sbeg  %s span %x < %x trace %v", ev.Name, ev.Span, ev.Parent, ev.Trace)
	case KindSpanEnd:
		return prefix + fmt.Sprintf("send  span %x in %v trace %v", ev.Span, ev.Dur, ev.Trace)
	}
	return prefix + ev.Kind.String()
}

// Sink consumes the event stream. Implementations are invoked from the
// simulation's single goroutine in simulated-time order; they need not be
// goroutine-safe for one run, but a sink shared by a parallel sweep's
// points is invoked concurrently and must synchronize (see SyncSink).
type Sink interface {
	Emit(Event)
	// Close flushes buffered output. The owner of the sink closes it;
	// the simulation does not.
	Close() error
}

// Tracer is the event source handed through the estimation stack. The nil
// *Tracer is a valid tracer that drops every event without allocating —
// instrumentation sites call trc.Emit(Event{...}) unconditionally.
type Tracer struct {
	sink Sink
}

// NewTracer returns a tracer feeding sink, or nil (the no-op tracer) for a
// nil sink.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether events are being consumed. Call sites only need
// it to skip expensive payload preparation; Emit itself is nil-safe.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit delivers one event. On a nil tracer it is a no-op and performs no
// allocation.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.sink.Emit(ev)
}

// TextSink adapts the event stream to a line-oriented func(string) consumer.
type TextSink struct {
	fn func(string)
}

// NewTextSink returns a sink rendering each event with Event.String.
func NewTextSink(fn func(string)) *TextSink { return &TextSink{fn: fn} }

// Emit implements Sink.
func (s *TextSink) Emit(ev Event) { s.fn(ev.String()) }

// Close implements Sink (no-op).
func (s *TextSink) Close() error { return nil }

// MultiSink fans one event stream out to several sinks.
type MultiSink []Sink

// Multi combines sinks, dropping nils. It returns nil when none remain, so
// NewTracer(Multi(...)) collapses to the no-op tracer.
func Multi(sinks ...Sink) Sink {
	var out MultiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Close implements Sink, closing every fan-out target and returning the
// first error.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
