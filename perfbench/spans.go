package main

import (
	"sync"

	"repro/internal/telemetry"
)

// spanTotals is a telemetry sink that sums span durations by span name —
// the per-layer busy time the program's own "gate", "iss", "compile" and
// "rebind" spans report. End events carry no name, so open spans are
// remembered by id.
type spanTotals struct {
	mu   sync.Mutex
	open map[uint64]string
	ns   map[string]int64
	hits map[string]int64 // zero-duration instants (ecache-hit, ecache-miss) by name
}

func newSpanTotals() *spanTotals {
	return &spanTotals{open: make(map[uint64]string), ns: make(map[string]int64), hits: make(map[string]int64)}
}

// Emit implements telemetry.Sink.
func (s *spanTotals) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindSpanBegin:
		s.mu.Lock()
		s.open[ev.Span] = ev.Name
		s.mu.Unlock()
	case telemetry.KindSpanEnd:
		s.mu.Lock()
		if name, ok := s.open[ev.Span]; ok {
			delete(s.open, ev.Span)
			s.add(name, int64(ev.Dur))
		}
		s.mu.Unlock()
	}
}

// add books one finished span; callers hold s.mu.
func (s *spanTotals) add(name string, durNS int64) {
	s.ns[name] += durNS
	if durNS == 0 {
		s.hits[name]++
	}
}

// Close implements telemetry.Sink.
func (s *spanTotals) Close() error { return nil }

// ms returns the summed duration of the named spans in milliseconds.
func (s *spanTotals) ms(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.ns[name]) / 1e6
}

// count returns how many zero-duration instants of that name arrived.
func (s *spanTotals) count(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.hits[name])
}
