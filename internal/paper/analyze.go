package paper

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// GroupKey identifies one statistics group: all repeats of one measurement
// point collapse into one key.
type GroupKey struct {
	Experiment string
	Kind       string
	Variant    string
	DMA        int
}

// Stat is the grouped statistic of one metric over the repeats of a key.
type Stat struct {
	N    int
	Mean float64
	Std  float64 // population standard deviation over the repeats
	CI95 float64 // normal-approximation 95% half-width: 1.96*std/sqrt(n)
	Min  float64
	Max  float64
}

// metricNames is the grouped-metric order of summary_grouped.csv. The
// harness's scalar Row columns, minus the identity/coordinate columns.
var metricNames = []string{
	"energy_j", "sw_j", "hw_j", "bus_j", "sim_ns", "wall_ns",
	"iss_calls", "iss_insts", "gate_execs",
	"budget_bound_j", "budget_ci95_j", "attrib_total_j", "peak_w",
}

// rowMetrics extracts the metric vector of a row, in metricNames order.
func rowMetrics(r Row) []float64 {
	return []float64{
		r.EnergyJ, r.SWJ, r.HWJ, r.BusJ, float64(r.SimNS), float64(r.WallNS),
		float64(r.ISSCalls), float64(r.ISSInsts), float64(r.GateExecs),
		r.BudgetBoundJ, r.BudgetCI95J, r.AttribTotalJ, r.PeakW,
	}
}

// Analysis is the grouped view of a result set: repeats collapsed into
// per-key, per-metric statistics, with group insertion order preserved.
type Analysis struct {
	RunID  string
	order  []GroupKey
	groups map[GroupKey][]stats.Running // indexed like metricNames
}

// Analyze groups the rows by (experiment, kind, variant, dma) and
// folds every repeat into running statistics.
func Analyze(rows []Row) *Analysis {
	a := &Analysis{groups: make(map[GroupKey][]stats.Running)}
	for _, r := range rows {
		if a.RunID == "" {
			a.RunID = r.RunID
		}
		k := GroupKey{Experiment: r.Experiment, Kind: r.Kind, Variant: r.Variant, DMA: r.DMA}
		g, ok := a.groups[k]
		if !ok {
			g = make([]stats.Running, len(metricNames))
			a.order = append(a.order, k)
		}
		for i, v := range rowMetrics(r) {
			g[i].Add(v)
		}
		a.groups[k] = g
	}
	return a
}

// Keys returns the group keys in first-appearance order.
func (a *Analysis) Keys() []GroupKey { return a.order }

// Stat returns the grouped statistic of one metric, false if the key or
// metric is unknown.
func (a *Analysis) Stat(k GroupKey, metric string) (Stat, bool) {
	g, ok := a.groups[k]
	if !ok {
		return Stat{}, false
	}
	for i, name := range metricNames {
		if name == metric {
			r := g[i]
			n := float64(r.N())
			ci := 0.0
			if n > 1 {
				ci = 1.96 * r.StdDev() / math.Sqrt(n)
			}
			return Stat{N: int(r.N()), Mean: r.Mean(), Std: r.StdDev(), CI95: ci, Min: r.Min(), Max: r.Max()}, true
		}
	}
	return Stat{}, false
}

// mustStat is Stat for keys the renderer already enumerated.
func (a *Analysis) mustStat(k GroupKey, metric string) Stat {
	s, _ := a.Stat(k, metric)
	return s
}

// WriteGroupedCSV writes the long-format grouped statistics:
// one line per (group, metric).
func (a *Analysis) WriteGroupedCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"experiment", "kind", "variant", "dma",
		"metric", "n", "mean", "std", "ci95", "min", "max",
	}); err != nil {
		return err
	}
	for _, k := range a.order {
		for _, m := range metricNames {
			s, _ := a.Stat(k, m)
			if err := cw.Write([]string{
				k.Experiment, k.Kind, k.Variant, strconv.Itoa(k.DMA),
				m, strconv.Itoa(s.N), ftoa(s.Mean), ftoa(s.Std), ftoa(s.CI95), ftoa(s.Min), ftoa(s.Max),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// experimentIDs returns the distinct experiment ids, in order.
func (a *Analysis) experimentIDs() []string {
	var ids []string
	seen := map[string]bool{}
	for _, k := range a.order {
		if !seen[k.Experiment] {
			seen[k.Experiment] = true
			ids = append(ids, k.Experiment)
		}
	}
	return ids
}

// expKeys returns the group keys of one experiment, in order.
func (a *Analysis) expKeys(id string) []GroupKey {
	var ks []GroupKey
	for _, k := range a.order {
		if k.Experiment == id {
			ks = append(ks, k)
		}
	}
	return ks
}

// energy is the mean energy of one group.
func (a *Analysis) energy(k GroupKey) float64 { return a.mustStat(k, "energy_j").Mean }

// minima returns every key at the lowest mean energy, in order.
func (a *Analysis) minima(keys []GroupKey) []GroupKey {
	es := make([]float64, len(keys))
	for i, k := range keys {
		es[i] = a.energy(k)
	}
	var out []GroupKey
	for _, i := range stats.ArgMins(es) {
		out = append(out, keys[i])
	}
	return out
}

// Markdown-rendering helpers.

func fmtWall(s Stat) string {
	mean := time.Duration(s.Mean).Round(time.Microsecond)
	if s.N < 2 {
		return mean.String()
	}
	return fmt.Sprintf("%s ± %s", mean, time.Duration(s.Std).Round(time.Microsecond))
}

func fmtPct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

func fmtSpeedup(base, accel float64) string {
	if accel <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", base/accel)
}

// kindTitles maps kinds to their paper framing.
var kindTitles = map[string]string{
	KindSeparate:     "Fig 1(b) — separate estimation vs co-estimation",
	KindCharacterize: "Fig 3 — characterized macro-operation energies (parameter file in analysis/)",
	KindPathEnergy:   "Fig 4(b) — per-path energy run on the DSP power model (histograms in the log)",
	KindTable1:       "Table 1 — energy & delay caching (base vs ecache)",
	KindTable2:       "Table 2 — software power macro-modeling (base vs macro)",
	KindTable3:       "Table 3 — statistical sampling + bus compaction (base vs sampled)",
	KindDSE:          "Fig 7 — energy vs priority assignment × DMA size",
	KindPartition:    "HW/SW partition exploration",
	KindQuality:      "Estimation quality — ecache with attribution and a shadow audit (ledger, budget and audit in the log)",
	KindServing:      "Serving warmth",
	KindWaveform:     "Peak power",
}

// RenderTables writes the generated Markdown tables of the analysis, one
// section per experiment in run order: Figs 1, 3, 4 and 7, the paper's
// Tables 1-3 (per-DMA base-vs-accelerated energy, accuracy, error budget
// and wall-time speedup, plus the Fig 6 line for Table 2), the partition
// and quality studies, the serving warmth table and the waveform peaks.
func (a *Analysis) RenderTables(w io.Writer) error {
	fmt.Fprintf(w, "# Generated paper tables (run %s)\n\n", a.RunID)
	fmt.Fprintf(w, "Generated by `cmd/paperrun` from results.csv — do not edit. Energies are\n")
	fmt.Fprintf(w, "deterministic per seed; wall times are mean ± std over the repeats and are\n")
	fmt.Fprintf(w, "machine-dependent. \"err\" is the accelerated variant's deviation from the\n")
	fmt.Fprintf(w, "base framework's energy; \"budget\" is the audit layer's live error bound.\n")

	for _, id := range a.experimentIDs() {
		kind := a.expKeys(id)[0].Kind
		fmt.Fprintf(w, "\n## %s (`%s`)\n\n", kindTitles[kind], id)
		switch kind {
		case KindTable1, KindTable2, KindTable3:
			a.renderTableKind(w, id)
			if kind == KindTable2 {
				a.renderFig6(w, id)
			}
		case KindSeparate:
			a.renderSeparate(w, id)
		case KindDSE:
			a.renderDSE(w, id)
		case KindServing:
			a.renderServing(w, id)
		case KindWaveform:
			a.renderWaveform(w, id)
		default:
			a.renderVariants(w, id)
		}
	}
	return nil
}

// dmaPair is one DMA size's base and accelerated group of a table kind.
type dmaPair struct {
	dma         int
	base, accel GroupKey
}

// dmaPairs pairs the base and accelerated keys of a table experiment per
// DMA size, in DMA order, dropping sizes that lack either side.
func (a *Analysis) dmaPairs(id string) []dmaPair {
	type half struct{ base, accel *GroupKey }
	halves := map[int]*half{}
	var dmas []int
	for _, k := range a.expKeys(id) {
		h, ok := halves[k.DMA]
		if !ok {
			h = &half{}
			halves[k.DMA] = h
			dmas = append(dmas, k.DMA)
		}
		kk := k
		if k.Variant == "base" {
			h.base = &kk
		} else {
			h.accel = &kk
		}
	}
	sort.Ints(dmas)
	var pairs []dmaPair
	for _, dma := range dmas {
		if h := halves[dma]; h.base != nil && h.accel != nil {
			pairs = append(pairs, dmaPair{dma: dma, base: *h.base, accel: *h.accel})
		}
	}
	return pairs
}

// renderTableKind writes one Tables 1-3 style experiment.
func (a *Analysis) renderTableKind(w io.Writer, id string) {
	fmt.Fprintln(w, "| DMA | base energy | accel energy | err | budget bound | base wall | accel wall | speedup |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|")
	for _, p := range a.dmaPairs(id) {
		baseE, accelE := a.energy(p.base), a.energy(p.accel)
		err := 0.0
		if baseE != 0 {
			err = math.Abs(accelE-baseE) / baseE
		}
		baseW := a.mustStat(p.base, "wall_ns")
		accelW := a.mustStat(p.accel, "wall_ns")
		fmt.Fprintf(w, "| %d | %s | %s | %s | %s | %s | %s | %s |\n",
			p.dma, energyString(baseE), energyString(accelE), fmtPct(err),
			energyString(a.mustStat(p.accel, "budget_bound_j").Mean),
			fmtWall(baseW), fmtWall(accelW), fmtSpeedup(baseW.Mean, accelW.Mean))
	}
}

// renderFig6 writes the Fig 6 relative-accuracy line of a table2
// experiment: how closely the macro-model energies track the base ones
// across the DMA axis.
func (a *Analysis) renderFig6(w io.Writer, id string) {
	var base, accel []float64
	for _, p := range a.dmaPairs(id) {
		base = append(base, a.energy(p.base))
		accel = append(accel, a.energy(p.accel))
	}
	corr, ranked := relativeAccuracy(base, accel)
	fmt.Fprintf(w, "\nFig 6 relative accuracy over %d DMA sizes: correlation %.4f, ranking preserved: %v\n",
		len(base), corr, ranked)
}

// rankTieTol is the relative base-energy gap below which Fig 6 treats two
// configurations as tied.
const rankTieTol = 0.01

// relativeAccuracy evaluates the Fig 6 criterion over paired energies: the
// Pearson correlation of accelerated vs base energies, and whether the
// ranking of configurations is preserved ("tracking fidelity"). Pairs whose
// base energies differ by less than 1% are ties — no estimator can be asked
// to order configurations the base framework itself barely separates.
func relativeAccuracy(base, accel []float64) (corr float64, rankingPreserved bool) {
	for i := range base {
		for j := i + 1; j < len(base); j++ {
			dx := base[i] - base[j]
			mean := (base[i] + base[j]) / 2
			if mean == 0 || math.Abs(dx/mean) < rankTieTol {
				continue
			}
			if dy := accel[i] - accel[j]; (dx > 0) != (dy > 0) {
				return stats.Pearson(base, accel), false
			}
		}
	}
	return stats.Pearson(base, accel), true
}

// renderSeparate writes the Fig 1(b) table and the consumer's
// under-estimation.
func (a *Analysis) renderSeparate(w io.Writer, id string) {
	e := func(variant string) float64 {
		return a.energy(GroupKey{Experiment: id, Kind: KindSeparate, Variant: variant})
	}
	fmt.Fprintln(w, "| estimation | producer energy | consumer energy |")
	fmt.Fprintln(w, "|---|---:|---:|")
	for _, mode := range []string{"separate", "co-est"} {
		fmt.Fprintf(w, "| %s | %s | %s |\n", mode, energyString(e(mode+"/producer")), energyString(e(mode+"/consumer")))
	}
	fmt.Fprintf(w, "\nSeparate estimation under-estimates the consumer by %.0f%% (paper: ~62%%).\n",
		underPct(e("separate/consumer"), e("co-est/consumer")))
}

// renderDSE writes the Fig 7 energy grid, priority assignments × DMA
// sizes, and every point at the minimum.
func (a *Analysis) renderDSE(w io.Writer, id string) {
	keys := a.expKeys(id)
	var perms []string
	var dmas []int
	for _, k := range keys {
		if !slices.Contains(perms, k.Variant) {
			perms = append(perms, k.Variant)
		}
		if !slices.Contains(dmas, k.DMA) {
			dmas = append(dmas, k.DMA)
		}
	}
	fmt.Fprint(w, "| priority |")
	for _, d := range dmas {
		fmt.Fprintf(w, " DMA %d |", d)
	}
	fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---:|", len(dmas)))
	for _, perm := range perms {
		fmt.Fprintf(w, "| %s |", perm)
		for _, d := range dmas {
			fmt.Fprintf(w, " %s |", energyString(a.energy(GroupKey{Experiment: id, Kind: KindDSE, Variant: perm, DMA: d})))
		}
		fmt.Fprintln(w)
	}
	mins := a.minima(keys)
	fmt.Fprintf(w, "\nMinimum %s at %d point(s):", energyString(a.energy(mins[0])), len(mins))
	for i, k := range mins {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s %s @ DMA %d", sep, k.Variant, k.DMA)
	}
	fmt.Fprintln(w, ".")
}

// renderServing writes the warm-vs-cold serving table.
func (a *Analysis) renderServing(w io.Writer, id string) {
	fmt.Fprintln(w, "| request | wall | speedup vs cold | energy |")
	fmt.Fprintln(w, "|---|---:|---:|---:|")
	keys := a.expKeys(id)
	var cold float64
	for _, k := range keys {
		if k.Variant == servCold {
			cold = a.mustStat(k, "wall_ns").Mean
		}
	}
	// Render the ladder in its canonical order regardless of row order.
	for _, variant := range []string{servCold, servWarm, servCachedCold, servCachedWarm} {
		for _, k := range keys {
			if k.Variant != variant {
				continue
			}
			wall := a.mustStat(k, "wall_ns")
			fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
				k.Variant, fmtWall(wall), fmtSpeedup(cold, wall.Mean), energyString(a.energy(k)))
		}
	}
}

// renderWaveform writes the peak-power summary.
func (a *Analysis) renderWaveform(w io.Writer, id string) {
	fmt.Fprintln(w, "| peak power | total energy | series |")
	fmt.Fprintln(w, "|---:|---:|---|")
	for _, k := range a.expKeys(id) {
		fmt.Fprintf(w, "| %.6g W | %s | analysis/waveform-%s.csv |\n",
			a.mustStat(k, "peak_w").Mean, energyString(a.energy(k)), id)
	}
}

// renderVariants writes one line per variant of the single-point kinds
// (characterize, partition, path-energy, quality) and, when there are
// several, the lowest-energy ones.
func (a *Analysis) renderVariants(w io.Writer, id string) {
	fmt.Fprintln(w, "| variant | DMA | energy | SW | HW | bus | sim time | budget bound |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	keys := a.expKeys(id)
	for _, k := range keys {
		fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s | %s | %s |\n",
			k.Variant, k.DMA, energyString(a.energy(k)),
			energyString(a.mustStat(k, "sw_j").Mean), energyString(a.mustStat(k, "hw_j").Mean),
			energyString(a.mustStat(k, "bus_j").Mean), units.Time(a.mustStat(k, "sim_ns").Mean).String(),
			energyString(a.mustStat(k, "budget_bound_j").Mean))
	}
	if len(keys) > 1 {
		for _, k := range a.minima(keys) {
			fmt.Fprintf(w, "\nLowest energy: %s (%s).\n", k.Variant, energyString(a.energy(k)))
		}
	}
}

// AnalyzeDir re-analyzes a run directory: it reads results.csv and
// (re)writes analysis/summary_grouped.csv and analysis/tables.md, so any
// past run can be re-summarized without re-running the experiments.
func AnalyzeDir(dir string) error {
	rows, err := ReadResultsFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		return err
	}
	a := Analyze(rows)
	if err := os.MkdirAll(filepath.Join(dir, "analysis"), 0o755); err != nil {
		return err
	}
	gf, err := os.Create(filepath.Join(dir, "analysis", "summary_grouped.csv"))
	if err != nil {
		return err
	}
	if err := a.WriteGroupedCSV(gf); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, "analysis", "tables.md"))
	if err != nil {
		return err
	}
	if err := a.RenderTables(tf); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}
