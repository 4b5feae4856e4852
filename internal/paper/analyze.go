package paper

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
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

// experiments returns the distinct experiment ids of a kind, in order, with
// their group keys.
func (a *Analysis) experiments(kind string) []string {
	var ids []string
	seen := map[string]bool{}
	for _, k := range a.order {
		if k.Kind == kind && !seen[k.Experiment] {
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

// tableTitles maps table kinds to their paper framing.
var tableTitles = map[string]string{
	KindTable1: "Table 1 — energy & delay caching (base vs ecache)",
	KindTable2: "Table 2 — software power macro-modeling (base vs macro)",
	KindTable3: "Table 3 — statistical sampling + bus compaction (base vs sampled)",
}

// RenderTables writes the generated Markdown tables of the analysis: the
// paper's Tables 1-3 (per-DMA base-vs-accelerated energy, accuracy, error
// budget, and wall-time speedup), the serving warmth table, and the
// waveform peaks.
func (a *Analysis) RenderTables(w io.Writer) error {
	fmt.Fprintf(w, "# Generated paper tables (run %s)\n\n", a.RunID)
	fmt.Fprintf(w, "Generated by `cmd/paperrun` from results.csv — do not edit. Energies are\n")
	fmt.Fprintf(w, "deterministic per seed; wall times are mean ± std over the repeats and are\n")
	fmt.Fprintf(w, "machine-dependent. \"err\" is the accelerated variant's deviation from the\n")
	fmt.Fprintf(w, "base framework's energy; \"budget\" is the audit layer's live error bound.\n")

	for _, kind := range []string{KindTable1, KindTable2, KindTable3} {
		for _, id := range a.experiments(kind) {
			a.renderTableKind(w, kind, id)
		}
	}
	for _, id := range a.experiments(KindServing) {
		a.renderServing(w, id)
	}
	for _, id := range a.experiments(KindWaveform) {
		a.renderWaveform(w, id)
	}
	return nil
}

// renderTableKind writes one Tables 1-3 style experiment.
func (a *Analysis) renderTableKind(w io.Writer, kind, id string) {
	fmt.Fprintf(w, "\n## %s (`%s`)\n\n", tableTitles[kind], id)
	fmt.Fprintln(w, "| DMA | base energy | accel energy | err | budget bound | base wall | accel wall | speedup |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|")
	// Pair the base and accelerated key per DMA size, preserving DMA order.
	type pair struct{ base, accel *GroupKey }
	pairs := map[int]*pair{}
	var dmas []int
	for _, k := range a.expKeys(id) {
		p, ok := pairs[k.DMA]
		if !ok {
			p = &pair{}
			pairs[k.DMA] = p
			dmas = append(dmas, k.DMA)
		}
		kk := k
		if k.Variant == "base" {
			p.base = &kk
		} else {
			p.accel = &kk
		}
	}
	sort.Ints(dmas)
	for _, dma := range dmas {
		p := pairs[dma]
		if p.base == nil || p.accel == nil {
			continue
		}
		baseE := a.mustStat(*p.base, "energy_j").Mean
		accelE := a.mustStat(*p.accel, "energy_j").Mean
		err := 0.0
		if baseE != 0 {
			err = math.Abs(accelE-baseE) / baseE
		}
		baseW := a.mustStat(*p.base, "wall_ns")
		accelW := a.mustStat(*p.accel, "wall_ns")
		fmt.Fprintf(w, "| %d | %s | %s | %s | %s | %s | %s | %s |\n",
			dma, energyString(baseE), energyString(accelE), fmtPct(err),
			energyString(a.mustStat(*p.accel, "budget_bound_j").Mean),
			fmtWall(baseW), fmtWall(accelW), fmtSpeedup(baseW.Mean, accelW.Mean))
	}
}

// renderServing writes the warm-vs-cold serving table.
func (a *Analysis) renderServing(w io.Writer, id string) {
	fmt.Fprintf(w, "\n## Serving warmth (`%s`)\n\n", id)
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
				k.Variant, fmtWall(wall), fmtSpeedup(cold, wall.Mean),
				energyString(a.mustStat(k, "energy_j").Mean))
		}
	}
}

// renderWaveform writes the peak-power summary.
func (a *Analysis) renderWaveform(w io.Writer, id string) {
	fmt.Fprintf(w, "\n## Peak power (`%s`)\n\n", id)
	fmt.Fprintln(w, "| peak power | total energy | series |")
	fmt.Fprintln(w, "|---:|---:|---|")
	for _, k := range a.expKeys(id) {
		fmt.Fprintf(w, "| %.6g W | %s | analysis/waveform-%s.csv |\n",
			a.mustStat(k, "peak_w").Mean,
			energyString(a.mustStat(k, "energy_j").Mean), id)
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
