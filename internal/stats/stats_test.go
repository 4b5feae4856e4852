package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if !almostEq(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", r.Mean())
	}
	if !almostEq(r.Variance(), 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", r.Variance())
	}
	if !almostEq(r.StdDev(), 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Error("empty accumulator must report zeros")
	}
	r.Add(42)
	if r.Mean() != 42 || r.Variance() != 0 {
		t.Errorf("single sample: mean=%g var=%g", r.Mean(), r.Variance())
	}
}

func TestCoefVar(t *testing.T) {
	var r Running
	r.Add(10)
	r.Add(10)
	if r.CoefVar() != 0 {
		t.Errorf("constant series CoefVar = %g, want 0", r.CoefVar())
	}
	var z Running
	z.Add(-1)
	z.Add(1)
	if !math.IsInf(z.CoefVar(), 1) {
		t.Errorf("zero-mean spread CoefVar = %g, want +Inf", z.CoefVar())
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 2
		xs := make([]float64, count)
		var r Running
		for i := range xs {
			xs[i] = rng.NormFloat64()*50 + 10
			r.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(count)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return almostEq(r.Mean(), mean, 1e-9) && almostEq(r.Variance(), ss/float64(count), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two accumulators equals one accumulator over the
// concatenated samples.
func TestPropertyMerge(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, all Running
		for i := 0; i < int(na)+1; i++ {
			x := rng.Float64() * 100
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb)+1; i++ {
			x := rng.Float64() * 100
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almostEq(a.Mean(), all.Mean(), 1e-9) &&
			almostEq(a.Variance(), all.Variance(), 1e-7) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(5)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Error("merging an empty accumulator must be a no-op")
	}
	b.Merge(&a)
	if b.N() != 1 || b.Mean() != 5 {
		t.Error("merging into an empty accumulator must copy")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 3, 3.9, 5, 9.9, -1, 100} {
		h.Add(x)
	}
	want := []uint64{3, 2, 1, 0, 2} // -1 clamps into bin 0, 100 into bin 4
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.N() != 8 {
		t.Errorf("N = %d, want 8", h.N())
	}
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %g, want 1", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.5)
	s := h.Render(10)
	if s == "" {
		t.Fatal("empty render")
	}
}

func TestHistogramBadSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad histogram spec must panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile must be NaN")
	}
	// input must not be mutated
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %g, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %g, want -1", got)
	}
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1})) {
		t.Error("zero-variance series must yield NaN")
	}
	if !math.IsNaN(Pearson(xs, []float64{1})) {
		t.Error("length mismatch must yield NaN")
	}
}

func TestArgMins(t *testing.T) {
	cases := []struct {
		xs   []float64
		want []int
	}{
		{nil, nil},
		{[]float64{5, 2, 9}, []int{1}},
		// A tie reports every minimum, in order.
		{[]float64{3, 1, 4, 1, 5, 1}, []int{1, 3, 5}},
		{[]float64{2, 2}, []int{0, 1}},
	}
	for _, c := range cases {
		got := ArgMins(c.xs)
		if len(got) != len(c.want) {
			t.Errorf("ArgMins(%v) = %v, want %v", c.xs, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ArgMins(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestRankOrderAndSameRanking(t *testing.T) {
	xs := []float64{10, 30, 20}
	rank := RankOrder(xs)
	want := []int{0, 2, 1}
	for i := range want {
		if rank[i] != want[i] {
			t.Fatalf("RankOrder = %v, want %v", rank, want)
		}
	}
	if !SameRanking([]float64{1, 2, 3}, []float64{10, 20, 30}) {
		t.Error("identical rankings not detected")
	}
	if SameRanking([]float64{1, 2, 3}, []float64{10, 30, 20}) {
		t.Error("different rankings not detected")
	}
	if SameRanking([]float64{1}, []float64{1, 2}) {
		t.Error("length mismatch must not be SameRanking")
	}
}

// Property: SameRanking is invariant under any strictly monotone transform.
func TestPropertyRankingMonotoneInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3*x + 7 // strictly increasing transform
		}
		return SameRanking(xs, ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
