// Package stats provides the small statistical toolkit the co-estimation
// framework depends on: running mean/variance (Welford) for the energy cache,
// histograms for the per-path energy distributions of Fig 4(b), and
// signal-value / signal-transition statistics used by the K-memory sequence
// compaction of §4.3.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates mean and variance online using Welford's algorithm.
// The zero value is an empty accumulator ready for use.
type Running struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples folded in.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Variance returns the population variance, or 0 with fewer than 2 samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// CoefVar returns the coefficient of variation (stddev/|mean|), the
// scale-free spread measure the energy cache thresholds against.
// It returns +Inf for a zero mean with nonzero spread, and 0 otherwise.
func (r *Running) CoefVar() float64 {
	sd := r.StdDev()
	if sd == 0 {
		return 0
	}
	if r.mean == 0 {
		return math.Inf(1)
	}
	return sd / math.Abs(r.mean)
}

// Merge folds the other accumulator into r (parallel Welford combine).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	mean := r.mean + d*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}

// RunningState is the wire/storage form of a Running accumulator: the same
// five Welford components with exported fields, so accumulators can cross
// process boundaries (energy-cache replication, session snapshots) and be
// recombined exactly with Merge on the other side.
type RunningState struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State exports the accumulator.
func (r *Running) State() RunningState {
	return RunningState{N: r.n, Mean: r.mean, M2: r.m2, Min: r.min, Max: r.max}
}

// validSlack is the relative rounding slack of Validate's two
// inequalities: a mean within [Min, Max], and M2 under Popoviciu's bound.
const validSlack = 1e-9

// Validate reports whether the state could have come from an accumulator:
// Mean, M2, Min and Max are finite, M2 is not negative, Min does not exceed
// Max, an empty state is all zero, and a one-sample state has M2 = 0 and
// Min = Mean = Max. With more samples, the mean lies within [Min, Max] and
// M2 under Popoviciu's bound N·(Max−Min)²/4 (the variance of values within
// [Min, Max] is at most a quarter of the range squared), both up to a
// relative slack of 1e-9 for rounding. It is the check for state taken
// from outside the process. How many samples a state may claim is policy
// for its consumer, not validity.
func (s RunningState) Validate() error {
	for _, v := range [...]float64{s.Mean, s.M2, s.Min, s.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stats: non-finite running state %+v", s)
		}
	}
	slack := validSlack * math.Max(math.Abs(s.Min), math.Abs(s.Max))
	switch {
	case s.M2 < 0:
		return fmt.Errorf("stats: running state has negative M2 %g", s.M2)
	case s.Min > s.Max:
		return fmt.Errorf("stats: running state has min %g above max %g", s.Min, s.Max)
	case s.N == 0 && s != RunningState{}:
		return fmt.Errorf("stats: empty running state carries values %+v", s)
	case s.N == 1 && (s.M2 != 0 || s.Min != s.Mean || s.Mean != s.Max):
		return fmt.Errorf("stats: one-sample running state is not a single value %+v", s)
	case s.Mean < s.Min-slack || s.Mean > s.Max+slack:
		return fmt.Errorf("stats: running state has mean %g outside [%g, %g]", s.Mean, s.Min, s.Max)
	case s.M2 > popoviciu(s)*(1+validSlack):
		return fmt.Errorf("stats: running state has M2 %g above N·(max−min)²/4 = %g", s.M2, popoviciu(s))
	}
	return nil
}

// popoviciu is the largest M2 that N values within [Min, Max] can have.
func popoviciu(s RunningState) float64 {
	r := s.Max - s.Min
	return float64(s.N) * r * r / 4
}

// RunningFromState rebuilds an accumulator from its exported state.
func RunningFromState(s RunningState) Running {
	return Running{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}

// Histogram is a fixed-bin histogram over [Lo, Hi); samples outside the
// range are clamped into the first/last bin so no energy sample is dropped.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	under  Running
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram spec [%g,%g) x%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.under.Add(x)
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	i := int((x - h.Lo) / w)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// N returns the total sample count.
func (h *Histogram) N() uint64 { return h.under.N() }

// Mean returns the mean of the raw samples (not bin centers).
func (h *Histogram) Mean() float64 { return h.under.Mean() }

// StdDev returns the standard deviation of the raw samples.
func (h *Histogram) StdDev() float64 { return h.under.StdDev() }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Render draws a crude fixed-width ASCII bar chart, one row per bin — the
// textual stand-in for the paper's Fig 4(b) energy histograms.
func (h *Histogram) Render(width int) string {
	var max uint64
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := int(float64(c) / float64(max) * float64(width))
		fmt.Fprintf(&b, "%10.4g |%-*s| %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Quantile returns the q-quantile (0<=q<=1) of the given sample slice using
// linear interpolation. It sorts a copy; the input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series. It is used by the Fig 6 relative-accuracy analysis (macro-model
// energy vs base energy should correlate near-perfectly).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	n := float64(len(xs))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ArgMins returns the indices of every element equal to the minimum of xs,
// in order: a design-space minimum can be a tie, and reporting only the
// first index would hide the rest (nil for an empty slice).
func ArgMins(xs []float64) []int {
	var idx []int
	for i, x := range xs {
		switch {
		case len(idx) == 0 || x < xs[idx[0]]:
			idx = append(idx[:0], i)
		case x == xs[idx[0]]:
			idx = append(idx, i)
		}
	}
	return idx
}

// RankOrder returns the permutation that sorts xs ascending: result[i] is the
// rank of xs[i]. Ties are broken by index, keeping the function deterministic.
func RankOrder(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	rank := make([]int, len(xs))
	for r, i := range idx {
		rank[i] = r
	}
	return rank
}

// SameRanking reports whether two series rank their elements identically —
// the paper's "tracking fidelity" criterion for macro-modeling (Fig 6).
func SameRanking(xs, ys []float64) bool {
	if len(xs) != len(ys) {
		return false
	}
	rx, ry := RankOrder(xs), RankOrder(ys)
	for i := range rx {
		if rx[i] != ry[i] {
			return false
		}
	}
	return true
}
