package coest

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Observability re-exports: the typed simulation event stream.
type (
	// TraceEvent is one typed simulation occurrence (reaction dispatch,
	// estimator invocation, cache hit, bus grant, ...) with its simulated
	// timestamp.
	TraceEvent = telemetry.Event
	// TraceEventKind discriminates TraceEvent payloads.
	TraceEventKind = telemetry.Kind
	// TraceSink consumes the event stream of a run. Sinks installed with
	// WithTraceSink are synchronized automatically, so one sink instance
	// may serve a parallel Sweep; Close the sink after the run to flush.
	TraceSink = telemetry.Sink
)

// NewJSONLTraceSink returns a sink writing one JSON object per event,
// newline-delimited, to w — the machine-readable export for downstream
// analysis. Close flushes.
func NewJSONLTraceSink(w io.Writer) TraceSink { return telemetry.NewJSONLSink(w) }

// NewChromeTraceSink returns a sink writing a Chrome/Perfetto trace_event
// JSON document to w: load the file in chrome://tracing or ui.perfetto.dev
// to browse the run with one lane per process. The document is only
// well-formed after Close.
func NewChromeTraceSink(w io.Writer) TraceSink { return telemetry.NewChromeSink(w) }

// NewTextTraceSink returns a sink rendering each event as one trace line to
// fn (TraceEvent.String) — the PTOLEMY-style source-level visibility.
func NewTextTraceSink(fn func(string)) TraceSink { return telemetry.NewTextSink(fn) }

// MultiTraceSink fans the event stream out to several sinks (nils are
// dropped).
func MultiTraceSink(sinks ...TraceSink) TraceSink { return telemetry.Multi(sinks...) }

// WithTraceSink streams the typed simulation event stream to sink. The sink
// is wrapped with a mutex once, so a single instance can absorb a parallel
// Sweep's interleaved streams (points' simulated timestamps interleave; run
// with WithWorkers(1) for one clean stream). The caller closes the sink
// after the run to flush buffered output.
func WithTraceSink(sink TraceSink) Option {
	wrapped := telemetry.Synchronized(sink)
	return configOption("WithTraceSink", func(st *settings) {
		if wrapped == nil {
			st.fail(fmt.Errorf("nil trace sink"))
			return
		}
		st.config(func(c *RunConfig) { c.Sink = wrapped })
	})
}
