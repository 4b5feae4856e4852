package compact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{{K: 0, Ratio: 1}, {K: 4, Ratio: 0}, {K: 4, Ratio: 8}}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("accepted %+v", p)
		}
	}
	if DefaultParams().Validate() != nil {
		t.Error("default params rejected")
	}
}

func TestSelectRatioOne(t *testing.T) {
	idx := SelectRepresentative([]uint64{5, 6, 7}, 1)
	if len(idx) != 3 {
		t.Fatalf("ratio 1 must keep everything: %v", idx)
	}
}

func TestSelectEmpty(t *testing.T) {
	if SelectRepresentative(nil, 4) != nil {
		t.Fatal("empty selection should be nil")
	}
}

func TestSelectCount(t *testing.T) {
	seq := make([]uint64, 64)
	idx := SelectRepresentative(seq, 4)
	if len(idx) != 16 {
		t.Fatalf("kept %d of 64 at ratio 4, want 16", len(idx))
	}
	// Indices sorted and unique.
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("indices not strictly increasing: %v", idx)
		}
	}
}

// Property: the selected subset's symbol distribution tracks the window's.
func TestPropertyDistributionPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A skewed 3-symbol stream: p(0)=0.6, p(1)=0.3, p(2)=0.1.
		seq := make([]uint64, 256)
		for i := range seq {
			r := rng.Float64()
			switch {
			case r < 0.6:
				seq[i] = 0
			case r < 0.9:
				seq[i] = 1
			default:
				seq[i] = 2
			}
		}
		full := map[uint64]float64{}
		for _, s := range seq {
			full[s] += 1.0 / float64(len(seq))
		}
		idx := SelectRepresentative(seq, 4)
		sub := map[uint64]float64{}
		for _, i := range idx {
			sub[seq[i]] += 1.0 / float64(len(idx))
		}
		for s, p := range full {
			if d := sub[s] - p; d > 0.12 || d < -0.12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The greedy selection must beat naive striding on a pathological stream
// where every 4th element is an outlier (striding would pick only outliers).
func TestBeatsNaiveStrideOnAdversarialStream(t *testing.T) {
	seq := make([]uint64, 64)
	for i := range seq {
		if i%4 == 0 {
			seq[i] = 9 // rare-looking but stride-aligned
		} else {
			seq[i] = 1
		}
	}
	idx := SelectRepresentative(seq, 4)
	ones := 0
	for _, i := range idx {
		if seq[i] == 1 {
			ones++
		}
	}
	// p(1) = 0.75 in the window; the subset should be dominated by 1s.
	if float64(ones)/float64(len(idx)) < 0.5 {
		t.Fatalf("subset has %d/%d ones; stride artifact not avoided", ones, len(idx))
	}
}

func TestSelectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := make([]uint64, 128)
	for i := range seq {
		seq[i] = uint64(rng.Intn(5))
	}
	a := SelectRepresentative(seq, 4)
	b := SelectRepresentative(seq, 4)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic selection")
		}
	}
}

func TestCompactorWindows(t *testing.T) {
	c := MustNew(Params{K: 8, Ratio: 4})
	var flushed []Window
	for i := 0; i < 20; i++ {
		if w, ok := c.Push(Item{Sym: uint64(i % 3), Energy: units.Energy(i)}); ok {
			flushed = append(flushed, w)
		}
	}
	if len(flushed) != 2 {
		t.Fatalf("flushed %d windows, want 2", len(flushed))
	}
	for _, w := range flushed {
		if w.Total != 8 || len(w.Selected) != 2 || w.Scale != 4 {
			t.Fatalf("window = %+v", w)
		}
	}
	// 4 leftovers.
	w, ok := c.Flush()
	if !ok || w.Total != 4 || len(w.Selected) != 1 || w.Scale != 4 {
		t.Fatalf("final flush = %+v, %v", w, ok)
	}
	if _, ok := c.Flush(); ok {
		t.Fatal("double flush")
	}
	st := c.Stats()
	if st.Items != 20 || st.Windows != 3 || st.Dispatched != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CompressionRatio() != 4 {
		t.Fatalf("compression = %g", st.CompressionRatio())
	}
}

func TestPayloadPreserved(t *testing.T) {
	c := MustNew(Params{K: 4, Ratio: 2})
	var got []Item
	for i := 0; i < 4; i++ {
		if w, ok := c.Push(Item{Sym: uint64(i), Energy: units.Energy(i * 100)}); ok {
			got = append(got, w.Selected...)
		}
	}
	if len(got) != 2 {
		t.Fatalf("selected items = %v", got)
	}
	for _, it := range got {
		if it.Energy != units.Energy(it.Sym*100) {
			t.Fatalf("item %d carries energy %v, want %d", it.Sym, it.Energy, it.Sym*100)
		}
	}
}

func TestEmptyStatsRatio(t *testing.T) {
	if (Stats{}).CompressionRatio() != 1 {
		t.Fatal("empty compression ratio must be 1")
	}
}
