package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// SpanRecord is one span of a completed request trace, as served by
// /debug/requests. Span ids render as hex strings — JSON numbers lose
// precision past 2^53.
type SpanRecord struct {
	Span    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	Value   int64   `json:"value,omitempty"`
	StartNS int64   `json:"start_ns"`         // wall ns since the trace epoch
	DurNS   int64   `json:"dur_ns"`           // -1: span never ended (request aborted)
	Cycles  uint64  `json:"cycles,omitempty"` // estimator payload on the end event
	EnergyJ float64 `json:"energy_j,omitempty"`

	id, parent uint64 // numeric ids for the Chrome replay
}

// RequestTrace is one completed request: the HTTP envelope, the estimation
// outcome, and the span tree.
type RequestTrace struct {
	Trace   string       `json:"trace"`
	Start   time.Time    `json:"start"`
	DurNS   int64        `json:"dur_ns"`
	Method  string       `json:"method"`
	Path    string       `json:"path"`
	Status  int          `json:"status"`
	System  string       `json:"system,omitempty"`
	Points  int          `json:"points,omitempty"`
	Warm    bool         `json:"warm,omitempty"`
	Error   string       `json:"error,omitempty"`
	Slow    bool         `json:"slow,omitempty"`
	Dropped int          `json:"dropped_spans,omitempty"`
	Spans   []SpanRecord `json:"spans,omitempty"`
}

// traceSummary is the list form of a trace: everything but the spans.
type traceSummary struct {
	Trace  string    `json:"trace"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Status int       `json:"status"`
	System string    `json:"system,omitempty"`
	Points int       `json:"points,omitempty"`
	Warm   bool      `json:"warm,omitempty"`
	Error  string    `json:"error,omitempty"`
	Slow   bool      `json:"slow,omitempty"`
	Spans  int       `json:"spans"`
}

func (t *RequestTrace) summary() traceSummary {
	return traceSummary{
		Trace: t.Trace, Start: t.Start, DurNS: t.DurNS, Method: t.Method,
		Path: t.Path, Status: t.Status, System: t.System,
		Points: t.Points, Warm: t.Warm, Error: t.Error, Slow: t.Slow,
		Spans: len(t.Spans),
	}
}

// traceCollector is the per-request telemetry sink: it keeps the request's
// span events as SpanRecords and ignores simulation events. Engine workers
// emit concurrently, so the collector locks; it is wrapped in
// telemetry.Synchronized anyway by the span scope construction, but locking
// here keeps the collector safe stand-alone (tests drive it directly).
type traceCollector struct {
	mu      sync.Mutex
	max     int
	spans   []SpanRecord
	open    map[uint64]int // span id -> index into spans
	dropped int
}

func newTraceCollector(max int) *traceCollector {
	return &traceCollector{max: max, open: make(map[uint64]int)}
}

// Emit implements telemetry.Sink.
func (c *traceCollector) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindSpanBegin:
		c.mu.Lock()
		if len(c.spans) >= c.max {
			c.dropped++
			c.mu.Unlock()
			return
		}
		rec := SpanRecord{
			Span: fmt.Sprintf("%x", ev.Span), Name: ev.Name, Detail: ev.Component,
			Value: ev.Value, StartNS: int64(ev.Time), DurNS: -1,
			id: ev.Span, parent: ev.Parent,
		}
		if ev.Parent != 0 {
			rec.Parent = fmt.Sprintf("%x", ev.Parent)
		}
		c.open[ev.Span] = len(c.spans)
		c.spans = append(c.spans, rec)
		c.mu.Unlock()
	case telemetry.KindSpanEnd:
		c.mu.Lock()
		if i, ok := c.open[ev.Span]; ok {
			delete(c.open, ev.Span)
			c.spans[i].DurNS = int64(ev.Dur)
			c.spans[i].Cycles = ev.Cycles
			c.spans[i].EnergyJ = ev.Energy.Joules()
		}
		c.mu.Unlock()
	}
}

// Close implements telemetry.Sink.
func (c *traceCollector) Close() error { return nil }

// take returns the collected spans and drop count, detaching them from the
// collector.
func (c *traceCollector) take() ([]SpanRecord, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans, dropped := c.spans, c.dropped
	c.spans, c.open, c.dropped = nil, nil, 0
	return spans, dropped
}

// traceRing is a fixed-size ring of completed request traces.
type traceRing struct {
	mu    sync.Mutex
	buf   []*RequestTrace
	next  int
	total uint64
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]*RequestTrace, n)} }

func (r *traceRing) add(t *RequestTrace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// list returns the retained traces, newest first.
func (r *traceRing) list() []*RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RequestTrace, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		if t := r.buf[(r.next-i+len(r.buf))%len(r.buf)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

func (r *traceRing) find(id string) *RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.buf {
		if t != nil && t.Trace == id {
			return t
		}
	}
	return nil
}

// DebugRequestsHandler serves the recent-request ring:
//
//	GET /debug/requests                       newest-first JSON summaries
//	GET /debug/requests?slow=1                the slow/error capture ring
//	GET /debug/requests?trace=<id>            one trace with its full span tree
//	GET /debug/requests?trace=<id>&format=chrome
//	                                          the trace as a Chrome trace_event
//	                                          file (chrome://tracing, Perfetto)
//
// The handler is mounted on the server itself and (by cmd/coestd) on the
// -debug-addr endpoint via telemetry.RegisterDebug.
func (s *Server) DebugRequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.ring == nil {
			http.Error(w, "request tracing disabled", http.StatusNotFound)
			return
		}
		if id := r.URL.Query().Get("trace"); id != "" {
			t := s.ring.find(id)
			if t == nil {
				t = s.slowRing.find(id)
			}
			if t == nil {
				http.Error(w, "no such trace (evicted or unknown)", http.StatusNotFound)
				return
			}
			if r.URL.Query().Get("format") == "chrome" {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+t.Trace+".json"))
				writeChromeTrace(w, t)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(t)
			return
		}
		ring := s.ring
		if r.URL.Query().Get("slow") != "" {
			ring = s.slowRing
		}
		traces := ring.list()
		out := make([]traceSummary, 0, len(traces))
		for _, t := range traces {
			out = append(out, t.summary())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}

// writeChromeTrace replays a completed trace's span records through a
// ChromeSink, reconstructing begin/end ordering from the recorded
// timestamps: begins in collection order (parents were collected before
// their children), ends by closing time with inner spans first.
func writeChromeTrace(w http.ResponseWriter, t *RequestTrace) {
	type replayEvent struct {
		at  int64
		end bool
		idx int // collection index of the span
	}
	evs := make([]replayEvent, 0, 2*len(t.Spans))
	for i, sp := range t.Spans {
		end := sp.StartNS + sp.DurNS
		if sp.DurNS < 0 {
			end = t.DurNS // never closed: clamp to the request's end
		}
		evs = append(evs, replayEvent{at: sp.StartNS, idx: i})
		evs = append(evs, replayEvent{at: end, end: true, idx: i})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.end != eb.end {
			return !ea.end // begins first at a tie (zero-duration instants)
		}
		if ea.end {
			return ea.idx > eb.idx // later-collected (inner) spans close first
		}
		return ea.idx < eb.idx // earlier-collected (outer) spans open first
	})
	sink := telemetry.NewChromeSink(w)
	trace := telemetry.TraceID{1, 1} // any non-zero id; the sink keys on span ids
	for _, e := range evs {
		sp := t.Spans[e.idx]
		ev := telemetry.Event{
			Time: units.Time(e.at), Machine: -1,
			Trace: trace, Span: sp.id, Parent: sp.parent,
		}
		if e.end {
			ev.Kind = telemetry.KindSpanEnd
			if sp.DurNS > 0 {
				ev.Dur = units.Time(sp.DurNS)
			}
			ev.Cycles = sp.Cycles
			ev.Energy = units.Energy(sp.EnergyJ)
		} else {
			ev.Kind = telemetry.KindSpanBegin
			ev.Name = sp.Name
			ev.Component = sp.Detail
			ev.Value = sp.Value
		}
		sink.Emit(ev)
	}
	_ = sink.Close()
}
