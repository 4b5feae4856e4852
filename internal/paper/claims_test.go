package paper

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/coest"
)

// claimsSpec runs the paper's qualitative claims at test scale: the Tables
// 1-2 axis at 6 packets, the Fig 6 axis, the full Fig 7 grid at the
// paper's 3 packets, and the prodcons studies at their default 8 packets.
func claimsSpec() *Spec {
	return &Spec{
		Name:     "claims",
		Repeats:  1,
		Seed:     1,
		Packets:  6,
		DMASizes: []int{2, 16, 64},
		Experiments: []Experiment{
			{ID: "fig1", Kind: KindSeparate, System: "prodcons", Packets: 8},
			{ID: "table1", Kind: KindTable1},
			{ID: "table2", Kind: KindTable2},
			{ID: "fig6", Kind: KindTable2, DMASizes: []int{2, 8, 32, 128}},
			{ID: "table3", Kind: KindTable3, DMASizes: []int{4}},
			{ID: "fig7", Kind: KindDSE, Packets: 3, DMASizes: []int{2, 4, 8, 16, 32, 64, 128}},
			{ID: "partition", Kind: KindPartition, System: "prodcons", Packets: 8},
		},
	}
}

// TestPaperClaims asserts the paper's qualitative claims on one harness
// run: who wins, monotonic trends, ranking fidelity and where the optima
// fall.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the claims grid")
	}
	dir, err := (&Runner{Spec: claimsSpec(), OutRoot: t.TempDir(), Stamp: "claims"}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	all, err := ReadResultsFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := func(id string) []Row {
		var out []Row
		for _, r := range all {
			if r.Experiment == id {
				out = append(out, r)
			}
		}
		return out
	}
	log := func(id string) string {
		b, err := os.ReadFile(filepath.Join(dir, "logs", id+".log"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// pairs splits a table experiment into its base and accelerated rows,
	// in DMA order.
	pairs := func(id string) (base, accel []Row) {
		rs := rows(id)
		for i := 0; i+1 < len(rs); i += 2 {
			base = append(base, rs[i])
			accel = append(accel, rs[i+1])
		}
		return base, accel
	}
	monotoneDown := func(t *testing.T, base []Row) {
		for i := 1; i < len(base); i++ {
			if base[i].EnergyJ > base[i-1].EnergyJ {
				t.Errorf("base energy rises from DMA %d to %d (Tables 1-2 row trend)", base[i-1].DMA, base[i].DMA)
			}
		}
	}
	errPct := func(base, accel Row) float64 { return math.Abs(accel.EnergyJ-base.EnergyJ) / base.EnergyJ * 100 }

	t.Run("Fig1Underestimation", func(t *testing.T) {
		e := map[string]float64{}
		for _, r := range rows("fig1") {
			e[r.Variant] = r.EnergyJ
		}
		// Producer: timing-independent, separate estimation is accurate.
		if d := math.Abs(e["separate/producer"]-e["co-est/producer"]) / e["co-est/producer"]; d > 0.02 {
			t.Errorf("producer separate error %.2f%%, want ~0", d*100)
		}
		// Consumer: separate estimation under-estimates substantially.
		if u := underPct(e["separate/consumer"], e["co-est/consumer"]); u < 25 {
			t.Errorf("consumer under-estimation %.0f%%, want the Fig 1 effect", u)
		}
		if !strings.Contains(log("fig1"), "co-est") {
			t.Error("missing rendered table")
		}
	})

	t.Run("Table1Caching", func(t *testing.T) {
		base, accel := pairs("table1")
		if len(base) != 3 {
			t.Fatalf("rows = %d, want 3", len(base))
		}
		for i := range base {
			if accel[i].ISSCalls >= base[i].ISSCalls {
				t.Errorf("dma %d: caching did not cut ISS calls (%d vs %d)", base[i].DMA, accel[i].ISSCalls, base[i].ISSCalls)
			}
			if e := errPct(base[i], accel[i]); e > 1.0 {
				t.Errorf("dma %d: caching error %.2f%% too large", base[i].DMA, e)
			}
		}
		monotoneDown(t, base)
	})

	t.Run("Table2Macromodel", func(t *testing.T) {
		base, accel := pairs("table2")
		for i := range base {
			if accel[i].ISSCalls != 0 {
				t.Errorf("dma %d: macromodel mode invoked the ISS", base[i].DMA)
			}
			// Conservative over-estimate, bounded.
			if accel[i].EnergyJ <= base[i].EnergyJ {
				t.Errorf("dma %d: macromodel must over-estimate (%g vs %g J)", base[i].DMA, accel[i].EnergyJ, base[i].EnergyJ)
			}
			if e := errPct(base[i], accel[i]); e > 60 {
				t.Errorf("dma %d: macromodel error %.1f%% too large", base[i].DMA, e)
			}
		}
		monotoneDown(t, base)
	})

	t.Run("Fig6RelativeAccuracy", func(t *testing.T) {
		base, accel := pairs("fig6")
		var xs, ys []float64
		for i := range base {
			xs = append(xs, base[i].EnergyJ)
			ys = append(ys, accel[i].EnergyJ)
		}
		corr, ranked := relativeAccuracy(xs, ys)
		if corr < 0.90 {
			t.Errorf("macromodel correlation %.3f, want near-linear (Fig 6)", corr)
		}
		if !ranked {
			t.Error("macromodel must preserve the DMA-size energy ranking (tracking fidelity)")
		}
		if !strings.Contains(log("fig6"), "*") {
			t.Error("no scatter points rendered")
		}
		tb, err := os.ReadFile(filepath.Join(dir, "analysis", "tables.md"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(tb), "Fig 6 relative accuracy over 4 DMA sizes") {
			t.Error("tables.md lacks the Fig 6 line")
		}
	})

	t.Run("Table3Sampling", func(t *testing.T) {
		base, accel := pairs("table3")
		if accel[0].ISSCalls >= base[0].ISSCalls {
			t.Errorf("sampling did not reduce ISS calls (%d vs %d)", accel[0].ISSCalls, base[0].ISSCalls)
		}
		if e := errPct(base[0], accel[0]); e > 10 {
			t.Errorf("sampling error %.1f%% too large", e)
		}
		if !strings.Contains(log("table3"), "bus trace compacted") {
			t.Error("table3 log lacks the bus-compaction line")
		}
	})

	t.Run("Fig7Exploration", func(t *testing.T) {
		pts := rows("fig7")
		if len(pts) != 6*7 {
			t.Fatalf("points = %d, want 42", len(pts))
		}
		perm0 := "create_pack>ip_check>checksum"
		tie := map[[2]any]bool{}
		for _, m := range minRows(pts) {
			tie[[2]any{m.Variant, m.DMA}] = true
			// The minimum lies at the large-DMA end (paper: DMA 128).
			if m.DMA < 32 {
				t.Errorf("minimum at %s DMA %d, paper found it at the large-DMA end", m.Variant, m.DMA)
			}
		}
		// With <= 63-word packets every DMA >= 64 is one burst, so the
		// paper's assignment ties there with every other one.
		for _, dma := range []int{64, 128} {
			if !tie[[2]any{perm0, dma}] {
				t.Errorf("%s at DMA %d is not in the minimum tie set %v", perm0, dma, tie)
			}
		}
		// Below DMA 64, create_pack above checksum is strictly cheaper.
		for _, dma := range []int{2, 4, 8, 16, 32} {
			above, below := math.Inf(-1), math.Inf(1)
			for _, p := range pts {
				if p.DMA != dma {
					continue
				}
				if strings.Index(p.Variant, "create_pack") < strings.Index(p.Variant, "checksum") {
					above = math.Max(above, p.EnergyJ)
				} else {
					below = math.Min(below, p.EnergyJ)
				}
			}
			if above >= below {
				t.Errorf("DMA %d: create_pack above checksum costs up to %g J, checksum above create_pack from %g J", dma, above, below)
			}
		}
		// Energy must vary across the grid (the exploration is meaningful);
		// the amplitude is gentler than the paper's ~3x because idle
		// components are clock-gated (see EXPERIMENTS.md).
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo, hi = math.Min(lo, p.EnergyJ), math.Max(hi, p.EnergyJ)
		}
		if hi/lo < 1.03 {
			t.Errorf("design space is flat: %g .. %g J", lo, hi)
		}
	})

	t.Run("PartitionSweep", func(t *testing.T) {
		pts := rows("partition")
		if len(pts) != 4 {
			t.Fatalf("points = %d, want 4", len(pts))
		}
		seen := map[string]bool{}
		worst := pts[0]
		for _, p := range pts {
			if p.EnergyJ <= 0 {
				t.Errorf("%s has no energy", p.Variant)
			}
			seen[p.Variant] = true
			if p.EnergyJ > worst.EnergyJ {
				worst = p
			}
		}
		if len(seen) != 4 {
			t.Errorf("duplicate mappings: %v", seen)
		}
		// ASIC implementations dissipate far less than software on this
		// workload: the all-HW mapping must win, the all-SW must lose.
		best := minRows(pts)
		if len(best) != 1 || best[0].Variant != "producer=hw/consumer=hw" {
			t.Errorf("best partition = %v, want all-HW", best)
		}
		if worst.Variant != "producer=sw/consumer=sw" {
			t.Errorf("worst partition = %s, want all-SW", worst.Variant)
		}
		if best[0].SWJ != 0 {
			t.Errorf("all-HW mapping reports SW energy %g J", best[0].SWJ)
		}
		if !strings.Contains(log("partition"), "best:") {
			t.Error("missing rendered table")
		}
	})
}

// TestFig4PathSpread checks the Fig 4(b) selection on the paper's
// 16-packet workload: two hot paths, the widest strictly wider than the
// tightest, rendered as bars.
func TestFig4PathSpread(t *testing.T) {
	p := coest.DefaultTCPIPParams()
	p.Packets = 16
	p.CorruptEvery = 0
	_, samples, err := collectPathEnergy(context.Background(), coest.TCPIP(p))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := spreadExtremes(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo.xs) < 4 || len(hi.xs) < 4 {
		t.Fatal("histograms too thin")
	}
	if hi.cv <= lo.cv {
		t.Fatalf("high-variance path (%.4f) not wider than low-variance (%.4f)", hi.cv, lo.cv)
	}
	if !strings.Contains(histogram(hi.xs).Render(40), "#") {
		t.Fatal("no rendered bars")
	}
	if _, _, err := spreadExtremes(nil); err == nil {
		t.Fatal("no hot paths must fail")
	}
}

func TestAnalyzerRelativeAccuracy(t *testing.T) {
	cases := []struct {
		name        string
		base, accel []float64
		minCorr     float64
		ranked      bool
	}{
		{"proportional", []float64{100, 90, 80}, []float64{130, 117, 104}, 0.999, true},
		{"inverted", []float64{100, 90}, []float64{80, 117}, -1, false},
	}
	for _, c := range cases {
		corr, ranked := relativeAccuracy(c.base, c.accel)
		if ranked != c.ranked {
			t.Errorf("%s: ranking preserved = %v, want %v", c.name, ranked, c.ranked)
		}
		if corr < c.minCorr {
			t.Errorf("%s: correlation = %g, want >= %g", c.name, corr, c.minCorr)
		}
	}
}

func TestAnalyzerRelativeAccuracyTies(t *testing.T) {
	// Two configs within 1% are a tie: an inverted ordering there must not
	// break ranking preservation.
	base := []float64{100.0, 100.5, 120.0} // 100 and 100.5 are 0.5% apart
	accel := []float64{130, 129, 150}
	if _, ranked := relativeAccuracy(base, accel); !ranked {
		t.Fatal("sub-tolerance inversion must count as a tie")
	}
}
