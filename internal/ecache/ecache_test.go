package ecache

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/units"
)

func TestMissUntilThresholds(t *testing.T) {
	c := New(Params{ThreshVariance: 0.05, ThreshCalls: 3})
	k := Key{Machine: 1, Path: 42}
	for i := 0; i < 3; i++ {
		if _, _, ok := c.Lookup(k); ok {
			t.Fatalf("hit before %d observations", i)
		}
		c.Update(k, 100*units.Nanojoule, 50)
	}
	e, cyc, ok := c.Lookup(k)
	if !ok {
		t.Fatal("no hit after threshold observations with zero variance")
	}
	if e != 100*units.Nanojoule || cyc != 50 {
		t.Fatalf("cached = %v, %d", e, cyc)
	}
}

func TestHighVarianceNeverCached(t *testing.T) {
	c := New(Params{ThreshVariance: 0.05, ThreshCalls: 2})
	k := Key{Path: 7}
	// Alternating energies: coefficient of variation ~ 0.33.
	vals := []units.Energy{100, 200, 100, 200, 100, 200}
	for _, v := range vals {
		if _, _, ok := c.Lookup(k); ok {
			t.Fatal("high-variance path served from cache")
		}
		c.Update(k, v*units.Nanojoule, 10)
	}
}

func TestLowVarianceCachedMean(t *testing.T) {
	c := New(Params{ThreshVariance: 0.05, ThreshCalls: 2})
	k := Key{Path: 9}
	c.Update(k, 100*units.Nanojoule, 10)
	c.Update(k, 102*units.Nanojoule, 12)
	e, cyc, ok := c.Lookup(k)
	if !ok {
		t.Fatal("low-variance path not cached")
	}
	if e != 101*units.Nanojoule {
		t.Fatalf("mean = %v", e)
	}
	if cyc != 11 {
		t.Fatalf("mean cycles = %d", cyc)
	}
}

func TestDistinctKeysIndependent(t *testing.T) {
	c := New(Params{ThreshCalls: 1})
	c.Update(Key{Machine: 0, Path: 1}, 10*units.Nanojoule, 1)
	if _, _, ok := c.Lookup(Key{Machine: 1, Path: 1}); ok {
		t.Fatal("cross-machine cache hit")
	}
	if _, _, ok := c.Lookup(Key{Machine: 0, Path: 2}); ok {
		t.Fatal("cross-path cache hit")
	}
	if _, _, ok := c.Lookup(Key{Machine: 0, Path: 1}); !ok {
		t.Fatal("legitimate hit missed")
	}
}

func TestStats(t *testing.T) {
	c := New(Params{ThreshCalls: 1})
	k := Key{Path: 5}
	c.Lookup(k) // miss
	c.Update(k, units.Nanojoule, 1)
	c.Lookup(k) // hit
	c.Lookup(k) // hit
	st := c.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() < 0.66 || st.HitRate() > 0.67 {
		t.Fatalf("hit rate = %g", st.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}

func TestReportOrderedByCalls(t *testing.T) {
	c := New(DefaultParams())
	hot := Key{Path: 1}
	cold := Key{Path: 2}
	for i := 0; i < 5; i++ {
		c.Update(hot, 10*units.Nanojoule, 1)
	}
	c.Update(cold, 99*units.Nanojoule, 1)
	rows := c.Report()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Key != hot || rows[0].Calls != 5 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if !rows[0].Cached {
		t.Fatal("hot zero-variance path should be cache-ready")
	}
	if rows[1].Cached {
		t.Fatal("single-observation path should not be cache-ready")
	}
}

func TestEntryAccess(t *testing.T) {
	c := New(DefaultParams())
	if c.Entry(Key{Path: 1}) != nil {
		t.Fatal("phantom entry")
	}
	c.Update(Key{Path: 1}, units.Nanojoule, 3)
	e := c.Entry(Key{Path: 1})
	if e == nil || e.Cycles.Mean() != 3 {
		t.Fatal("entry not recorded")
	}
}

func TestZeroThresholdVarianceExactOnly(t *testing.T) {
	c := New(Params{ThreshVariance: 0, ThreshCalls: 2})
	k := Key{Path: 3}
	c.Update(k, 100*units.Nanojoule, 10)
	c.Update(k, 100*units.Nanojoule, 10)
	if _, _, ok := c.Lookup(k); !ok {
		t.Fatal("identical observations must hit at zero threshold")
	}
	c.Update(k, 100.001*units.Nanojoule, 10)
	if _, _, ok := c.Lookup(k); ok {
		t.Fatal("any spread must miss at zero threshold")
	}
}

func TestInvalidateResetsButKeepsHits(t *testing.T) {
	c := New(Params{ThreshCalls: 2})
	k := Key{Machine: 1, Path: 5}
	c.Update(k, 100*units.Nanojoule, 10)
	c.Update(k, 100*units.Nanojoule, 10)
	for i := 0; i < 3; i++ {
		if _, _, ok := c.Lookup(k); !ok {
			t.Fatal("expected hit before invalidation")
		}
	}

	c.Invalidate(k)
	if _, _, ok := c.Lookup(k); ok {
		t.Fatal("hit served from invalidated entry")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// The hit exposure survives the reset — the entry served 3 estimates
	// and the error budget must keep accounting for them.
	c.Update(k, 200*units.Nanojoule, 20)
	c.Update(k, 200*units.Nanojoule, 20)
	rows := c.Report()
	var found bool
	for _, r := range rows {
		if r.Key == k {
			found = true
			if r.Hits != 3 {
				t.Fatalf("hits after invalidate = %d, want 3", r.Hits)
			}
			if r.Mean != 200*units.Nanojoule {
				t.Fatalf("re-characterized mean = %v, want 200nJ", r.Mean)
			}
		}
	}
	if !found {
		t.Fatal("re-characterized entry missing from report")
	}

	// Fresh observations re-qualify the entry.
	if e, _, ok := c.Lookup(k); !ok || e != 200*units.Nanojoule {
		t.Fatalf("re-characterized lookup = %v, %v", e, ok)
	}
}

func TestInvalidateUnknownKeyIsNoOp(t *testing.T) {
	c := New(DefaultParams())
	c.Invalidate(Key{Machine: 9, Path: 9})
	if st := c.Stats(); st.Invalidations != 0 {
		t.Fatalf("invalidating an absent key counted: %d", st.Invalidations)
	}
}

func TestReportCarriesHitsAndSpread(t *testing.T) {
	c := New(Params{ThreshVariance: 0.2, ThreshCalls: 2})
	k := Key{Path: 3}
	c.Update(k, 90*units.Nanojoule, 10)
	c.Update(k, 110*units.Nanojoule, 10)
	c.Lookup(k)
	c.Lookup(k)
	for _, r := range c.Report() {
		if r.Key != k {
			continue
		}
		if r.Hits != 2 {
			t.Fatalf("hits = %d, want 2", r.Hits)
		}
		if r.Min != 90*units.Nanojoule || r.Max != 110*units.Nanojoule {
			t.Fatalf("spread = [%v, %v], want [90nJ, 110nJ]", r.Min, r.Max)
		}
		return
	}
	t.Fatal("entry missing from report")
}

// TestLoadRejectsInvalidStats: Load checks every path's statistics before
// it loads any, so a dump carrying a state no accumulator could have
// produced leaves the cache empty.
func TestLoadRejectsInvalidStats(t *testing.T) {
	src := New(DefaultParams())
	src.Update(Key{Path: 1}, 90*units.Nanojoule, 10)
	src.Update(Key{Path: 1}, 110*units.Nanojoule, 12)
	src.Update(Key{Path: 2}, 50*units.Nanojoule, 5)
	good := src.Dump()
	if c := New(DefaultParams()); c.Load(good) != nil || len(c.Dump()) != len(good) {
		t.Fatal("a real dump did not load")
	}

	cases := []struct {
		name    string
		corrupt func(ps *PathStat)
		want    string
	}{
		{"NaN energy mean", func(ps *PathStat) { ps.Energy.Mean = math.NaN() }, "non-finite"},
		{"infinite cycles max", func(ps *PathStat) { ps.Cycles.Max = math.Inf(1) }, "non-finite"},
		{"negative M2", func(ps *PathStat) { ps.Energy.M2 = -1e-30 }, "negative M2"},
		{"min above max", func(ps *PathStat) { ps.Energy.Min = 2 * ps.Energy.Max }, "above max"},
		{"empty state with a mean", func(ps *PathStat) { ps.Cycles = stats.RunningState{Mean: 3} }, "empty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			paths := append([]PathStat(nil), good...)
			c.corrupt(&paths[len(paths)-1])
			cache := New(DefaultParams())
			err := cache.Load(paths)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Load error %v, want one containing %q", err, c.want)
			}
			if n := len(cache.Dump()); n != 0 {
				t.Fatalf("a refused Load left %d paths in the cache", n)
			}
		})
	}
}

// TestMergeGlobalRefusesInvalidState: a shard refuses a global state that
// fails validation, or that would merge with its pending observations into
// one that does, and keeps its cache unchanged.
func TestMergeGlobalRefusesInvalidState(t *testing.T) {
	c := New(DefaultParams())
	c.Update(Key{Path: 1}, 90*units.Nanojoule, 10)
	c.Update(Key{Path: 2}, 1e308, 10)
	before := c.Dump()
	one := func(mean float64) stats.RunningState {
		return stats.RunningState{N: 1, Mean: mean, Min: mean, Max: mean}
	}
	for name, global := range map[string][]PathStat{
		"negative M2":             {{Key: Key{Path: 1}, Energy: stats.RunningState{N: 2, M2: -1}, Cycles: one(10)}},
		"invalid after valid":     {{Key: Key{Path: 3}, Energy: one(1e-9), Cycles: one(10)}, {Key: Key{Path: 1}, Energy: one(math.NaN()), Cycles: one(10)}},
		"infinite merged pending": {{Key: Key{Path: 2}, Energy: one(-1e308), Cycles: one(10)}},
	} {
		if err := c.MergeGlobal(global); err == nil {
			t.Errorf("%s: MergeGlobal accepted %+v", name, global)
		}
		if after := c.Dump(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refused global changed the cache:\n got %+v\nwant %+v", name, after, before)
		}
	}
}
