package core

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"repro/internal/cfsm"
	"repro/internal/units"
)

// SharedMemory is the behavioral model of the shared on-chip memory: a
// word-addressed store all machines see through cfsm.Env. Timing and energy
// of the accesses are accounted separately by the bus model from each
// reaction's MemOps trace.
//
// Words below denseWords live in a slice that grows to the highest one
// written; the case-study systems address a few hundred words. A model
// that computes a wilder address costs a map entry, not a huge slice.
type SharedMemory struct {
	words  []cfsm.Value
	high   map[uint32]cfsm.Value // words at denseWords and above
	reads  uint64
	writes uint64
}

// denseWords bounds the slice-backed part of SharedMemory: 64 Ki words
// (256 KiB) from address 0.
const denseWords = 1 << 16

// NewSharedMemory returns an empty memory (all words zero).
func NewSharedMemory() *SharedMemory {
	return &SharedMemory{}
}

// MemRead implements cfsm.Env.
func (m *SharedMemory) MemRead(addr uint32) cfsm.Value {
	m.reads++
	return m.Peek(addr)
}

// MemWrite implements cfsm.Env.
func (m *SharedMemory) MemWrite(addr uint32, v cfsm.Value) {
	m.writes++
	m.Poke(addr, v)
}

// Peek reads without counting (test/setup access).
func (m *SharedMemory) Peek(addr uint32) cfsm.Value {
	if addr < uint32(len(m.words)) {
		return m.words[addr]
	}
	if addr < denseWords {
		return 0
	}
	return m.high[addr]
}

// Poke writes without counting (environment/setup access).
func (m *SharedMemory) Poke(addr uint32, v cfsm.Value) {
	switch {
	case addr < uint32(len(m.words)):
		m.words[addr] = v
	case addr < denseWords:
		m.grow(int(addr) + 1)
		m.words[addr] = v
	default:
		if m.high == nil {
			m.high = make(map[uint32]cfsm.Value)
		}
		m.high[addr] = v
	}
}

// grow extends the dense words to n. Storage at least doubles, from 1 Ki
// words, so a run's writes reallocate it a few times at most.
func (m *SharedMemory) grow(n int) {
	if n > cap(m.words) {
		w := make([]cfsm.Value, n, max(n, 2*cap(m.words), 1024))
		copy(w, m.words)
		m.words = w
	}
	m.words = m.words[:n]
}

// Accesses returns the behavioral read/write counts.
func (m *SharedMemory) Accesses() (reads, writes uint64) { return m.reads, m.writes }

// Waveform is a time-bucketed per-component power recorder: the "energy and
// power waveforms for the various parts of the system" the master displays
// (paper §3), and the peak-power analysis of §5.3.
type Waveform struct {
	Bucket units.Time
	series map[string][]float64 // joules per bucket
}

// NewWaveform returns a recorder with the given resolution.
func NewWaveform(bucket units.Time) *Waveform {
	return &Waveform{Bucket: bucket, series: make(map[string][]float64)}
}

// Add charges energy e to component name at time t.
func (w *Waveform) Add(name string, t units.Time, e units.Energy) {
	if w == nil || w.Bucket <= 0 {
		return
	}
	i := int(t / w.Bucket)
	s := w.series[name]
	for len(s) <= i {
		s = append(s, 0)
	}
	s[i] += float64(e)
	w.series[name] = s
}

// Series returns the per-bucket average power of a component.
func (w *Waveform) Series(name string) []units.Power {
	if w == nil {
		return nil
	}
	s := w.series[name]
	out := make([]units.Power, len(s))
	for i, e := range s {
		out[i] = units.Energy(e).Over(w.Bucket)
	}
	return out
}

// Names returns the recorded component names.
func (w *Waveform) Names() []string {
	if w == nil {
		return nil
	}
	names := make([]string, 0, len(w.series))
	for n := range w.series {
		names = append(names, n)
	}
	return names
}

// Peak returns the time and value of the highest total-power bucket.
func (w *Waveform) Peak() (units.Time, units.Power) {
	if w == nil {
		return 0, 0
	}
	var total []float64
	for _, s := range w.series {
		for i, e := range s {
			for len(total) <= i {
				total = append(total, 0)
			}
			total[i] += e
		}
	}
	best, bestI := 0.0, -1
	for i, e := range total {
		if e > best {
			best, bestI = e, i
		}
	}
	if bestI < 0 {
		return 0, 0
	}
	return units.Time(bestI) * w.Bucket, units.Energy(best).Over(w.Bucket)
}

// WriteCSV exports the waveform as CSV: a time_ns column, one average-power
// column (watts) per component in sorted name order, and a total_w column;
// shorter series are zero-padded to the longest. A nil or empty waveform
// writes the header row only.
func (w *Waveform) WriteCSV(out io.Writer) error {
	var names []string
	n := 0
	if w != nil {
		names = w.Names()
		sort.Strings(names)
		for _, s := range w.series {
			if len(s) > n {
				n = len(s)
			}
		}
	}
	cw := csv.NewWriter(out)
	header := append([]string{"time_ns"}, names...)
	if err := cw.Write(append(header, "total_w")); err != nil {
		return err
	}
	rec := make([]string, len(names)+2)
	for i := 0; i < n; i++ {
		rec[0] = strconv.FormatInt(int64(units.Time(i)*w.Bucket), 10)
		total := 0.0
		for j, name := range names {
			var e float64
			if s := w.series[name]; i < len(s) {
				e = s[i]
			}
			total += e
			rec[j+1] = strconv.FormatFloat(float64(units.Energy(e).Over(w.Bucket)), 'g', -1, 64)
		}
		rec[len(rec)-1] = strconv.FormatFloat(float64(units.Energy(total).Over(w.Bucket)), 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
