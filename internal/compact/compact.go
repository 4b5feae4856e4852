// Package compact implements the statistical sampling / K-memory dynamic
// sequence compaction acceleration of §4.3 of the paper: given a stream of
// symbols (input vectors for the hardware simulator, executed paths for the
// ISS), buffer K of them, then deterministically select a representative
// subset that preserves the single-symbol occurrence statistics and the
// two-symbol (lag-one transition) statistics of the buffered window as well
// as possible. Only the subset is dispatched to the expensive lower-level
// simulator; its measured energy is scaled back up by the compaction ratio.
package compact

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide compaction metrics (aggregated across every compactor).
var (
	mWindows    = telemetry.Default.Counter("coest_compact_windows_total", "K-memory windows compacted")
	mItems      = telemetry.Default.Counter("coest_compact_items_total", "items buffered for compaction")
	mDispatched = telemetry.Default.Counter("coest_compact_dispatched_total", "representative items dispatched to the estimator")
)

// Params configures the dynamic compactor.
type Params struct {
	// K is the window size (the paper's K-memory).
	K int
	// Ratio is the compaction ratio: one of every Ratio buffered symbols is
	// dispatched. Ratio 1 disables compaction.
	Ratio int
}

// DefaultParams keeps one in four symbols over 64-symbol windows.
func DefaultParams() Params { return Params{K: 64, Ratio: 4} }

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("compact: K must be positive, got %d", p.K)
	}
	if p.Ratio <= 0 {
		return fmt.Errorf("compact: ratio must be positive, got %d", p.Ratio)
	}
	if p.Ratio > p.K {
		return fmt.Errorf("compact: ratio %d exceeds window %d", p.Ratio, p.K)
	}
	return nil
}

// SelectRepresentative returns the (sorted) indices of a subset of seq with
// ceil(len/ratio) elements chosen to preserve single-symbol frequencies and
// lag-one pair frequencies. The selection is deterministic: it partitions
// the window into blocks of size ratio and greedily picks, from each block,
// the element that most reduces the L1 distance between the scaled subset
// statistics and the full-window statistics.
func SelectRepresentative(seq []uint64, ratio int) []int {
	n := len(seq)
	if n == 0 {
		return nil
	}
	if ratio <= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	keep := (n + ratio - 1) / ratio

	// Full-window statistics, with deterministic iteration order (sorted
	// key slices) so that float summation order — and hence tie-breaking —
	// is reproducible run to run.
	single := map[uint64]float64{}
	pair := map[[2]uint64]float64{}
	for i, s := range seq {
		single[s] += 1.0 / float64(n)
		if i > 0 {
			pair[[2]uint64{seq[i-1], s}] += 1.0 / float64(n-1)
		}
	}
	singleKeys := make([]uint64, 0, len(single))
	for s := range single {
		singleKeys = append(singleKeys, s)
	}
	sort.Slice(singleKeys, func(a, b int) bool { return singleKeys[a] < singleKeys[b] })
	pairKeys := make([][2]uint64, 0, len(pair))
	for k := range pair {
		pairKeys = append(pairKeys, k)
	}
	sort.Slice(pairKeys, func(a, b int) bool {
		if pairKeys[a][0] != pairKeys[b][0] {
			return pairKeys[a][0] < pairKeys[b][0]
		}
		return pairKeys[a][1] < pairKeys[b][1]
	})

	// Greedy per-block selection against the running subset statistics.
	var chosen []int
	subSingle := map[uint64]float64{}
	subPair := map[[2]uint64]float64{}
	var lastSym uint64
	haveLast := false

	scoreWith := func(sym uint64) float64 {
		// L1 improvement of adding sym (and the pair lastSym->sym) to the
		// subset, versus the full-window target. Lower is better.
		m := float64(len(chosen) + 1)
		var d float64
		for _, s := range singleKeys {
			q := subSingle[s]
			if s == sym {
				q++
			}
			d += abs(q/m - single[s])
		}
		if haveLast {
			pm := m - 1
			if pm > 0 {
				key := [2]uint64{lastSym, sym}
				for _, k := range pairKeys {
					q := subPair[k]
					if k == key {
						q++
					}
					d += abs(q/pm - pair[k])
				}
			}
		}
		return d
	}

	for b := 0; b < keep; b++ {
		lo := b * ratio
		hi := lo + ratio
		if hi > n {
			hi = n
		}
		best, bestScore := lo, 0.0
		for i := lo; i < hi; i++ {
			s := scoreWith(seq[i])
			if i == lo || s < bestScore {
				best, bestScore = i, s
			}
		}
		sym := seq[best]
		chosen = append(chosen, best)
		subSingle[sym]++
		if haveLast {
			subPair[[2]uint64{lastSym, sym}]++
		}
		lastSym, haveLast = sym, true
	}
	return chosen
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Item is one buffered element: the statistical symbol plus the energy the
// item cost, which a dispatched window scales back up.
type Item struct {
	Sym    uint64
	Energy units.Energy
}

// Window is one flushed window: the selected items to dispatch and the
// scale factor to apply to their measured energy (window size / selected).
type Window struct {
	Selected []Item
	Total    int
	Scale    float64
}

// Compactor is the dynamic K-memory compactor: Push items; when the buffer
// reaches K a Window is returned.
type Compactor struct {
	params Params
	buf    []Item

	windows    uint64
	inTotal    uint64
	dispatched uint64
}

// New validates the parameters and returns an empty compactor.
func New(p Params) (*Compactor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Compactor{params: p}, nil
}

// MustNew is New, panicking on config errors.
func MustNew(p Params) *Compactor {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Push buffers one item. When the window fills, it returns the selected
// subset (and true); otherwise ok is false.
func (c *Compactor) Push(it Item) (Window, bool) {
	c.buf = append(c.buf, it)
	c.inTotal++
	if len(c.buf) < c.params.K {
		return Window{}, false
	}
	return c.flush(), true
}

// Flush drains a partial window (end of simulation).
func (c *Compactor) Flush() (Window, bool) {
	if len(c.buf) == 0 {
		return Window{}, false
	}
	return c.flush(), true
}

func (c *Compactor) flush() Window {
	syms := make([]uint64, len(c.buf))
	for i, it := range c.buf {
		syms[i] = it.Sym
	}
	idx := SelectRepresentative(syms, c.params.Ratio)
	w := Window{Total: len(c.buf)}
	for _, i := range idx {
		w.Selected = append(w.Selected, c.buf[i])
	}
	w.Scale = float64(w.Total) / float64(len(w.Selected))
	c.buf = c.buf[:0]
	c.windows++
	c.dispatched += uint64(len(w.Selected))
	mWindows.Inc()
	mItems.Add(uint64(w.Total))
	mDispatched.Add(uint64(len(w.Selected)))
	return w
}

// Stats reports compactor effectiveness.
type Stats struct {
	Windows    uint64
	Items      uint64
	Dispatched uint64
}

// CompressionRatio returns items/dispatched (1 when nothing dispatched).
func (s Stats) CompressionRatio() float64 {
	if s.Dispatched == 0 {
		return 1
	}
	return float64(s.Items) / float64(s.Dispatched)
}

// Stats returns the counters.
func (c *Compactor) Stats() Stats {
	return Stats{Windows: c.windows, Items: c.inTotal, Dispatched: c.dispatched}
}
