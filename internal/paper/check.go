package paper

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// The regression gate's drift budgets, relative differences
// |a-b|/max(|a|,|b|). Energies and counters are deterministic per seed, so
// their tolerances are tight (they absorb only float-accumulation-order
// noise); error-budget metrics are derived statistics with a looser band.
const (
	// tolEnergy covers the energy-denominated metrics (energy_j, sw_j, hw_j,
	// bus_j, attrib_total_j, peak_w).
	tolEnergy = 0.002
	// tolCount covers the discrete execution counters (iss_calls,
	// iss_insts, gate_execs, sim_ns).
	tolCount = 0.001
	// tolBudget covers the audit-layer budget metrics (budget_bound_j,
	// budget_ci95_j).
	tolBudget = 0.10
)

// metricClass returns the tolerance for one metric, false when the metric
// is outside the gate. wall_ns is never gated: it measures the machine, and
// committed baselines come from other machines.
func metricClass(metric string) (float64, bool) {
	switch metric {
	case "energy_j", "sw_j", "hw_j", "bus_j", "attrib_total_j", "peak_w":
		return tolEnergy, true
	case "iss_calls", "iss_insts", "gate_execs", "sim_ns":
		return tolCount, true
	case "budget_bound_j", "budget_ci95_j":
		return tolBudget, true
	}
	return 0, false
}

// Drift is one gate violation: a grouped metric mean that moved beyond its
// tolerance, or a baseline group the fresh run no longer produces.
type Drift struct {
	Key      GroupKey
	Metric   string
	Baseline float64
	Fresh    float64
	Rel      float64 // relative difference; -1 for a missing group
	Tol      float64
}

func (d Drift) String() string {
	where := fmt.Sprintf("%s/%s/dma=%d", d.Key.Experiment, d.Key.Variant, d.Key.DMA)
	if d.Rel < 0 {
		return fmt.Sprintf("%s: group missing from fresh run", where)
	}
	return fmt.Sprintf("%s %s: baseline %.9g, fresh %.9g (rel %.3g > tol %.3g)",
		where, d.Metric, d.Baseline, d.Fresh, d.Rel, d.Tol)
}

// CheckResult is the outcome of a baseline comparison.
type CheckResult struct {
	Groups  int     // baseline groups compared
	Metrics int     // metric comparisons inside tolerance scope
	Drifts  []Drift // violations, empty on a pass
	Extra   []GroupKey
}

// OK reports whether the fresh run is inside the drift budget.
func (r *CheckResult) OK() bool { return len(r.Drifts) == 0 }

// Check compares the grouped means of a fresh result set against a
// baseline's, group by group and metric by metric. A baseline group the
// fresh run lacks is a drift (the run shrank); a fresh group absent from
// the baseline is reported in Extra but does not fail the gate (specs are
// allowed to grow ahead of their baselines).
func Check(baseline, fresh []Row) *CheckResult {
	ab, af := Analyze(baseline), Analyze(fresh)
	res := &CheckResult{}
	for _, k := range ab.Keys() {
		res.Groups++
		for _, metric := range metricNames {
			t, gated := metricClass(metric)
			if !gated {
				continue
			}
			bs, _ := ab.Stat(k, metric)
			fs, ok := af.Stat(k, metric)
			if !ok {
				res.Drifts = append(res.Drifts, Drift{Key: k, Rel: -1})
				break
			}
			res.Metrics++
			if rel := relDiff(bs.Mean, fs.Mean); rel > t {
				res.Drifts = append(res.Drifts, Drift{
					Key: k, Metric: metric, Baseline: bs.Mean, Fresh: fs.Mean, Rel: rel, Tol: t,
				})
			}
		}
	}
	base := map[GroupKey]bool{}
	for _, k := range ab.Keys() {
		base[k] = true
	}
	for _, k := range af.Keys() {
		if !base[k] {
			res.Extra = append(res.Extra, k)
		}
	}
	return res
}

// CheckDirs runs Check over two run directories' results.csv files.
func CheckDirs(baselineDir, freshDir string) (*CheckResult, error) {
	baseline, err := ReadResultsFile(filepath.Join(baselineDir, "results.csv"))
	if err != nil {
		return nil, fmt.Errorf("paper: baseline: %w", err)
	}
	fresh, err := ReadResultsFile(filepath.Join(freshDir, "results.csv"))
	if err != nil {
		return nil, fmt.Errorf("paper: fresh run: %w", err)
	}
	return Check(baseline, fresh), nil
}

// Report renders the check outcome for humans.
func (r *CheckResult) Report(w io.Writer) {
	if r.OK() {
		fmt.Fprintf(w, "check: PASS — %d groups, %d metric comparisons inside tolerance\n",
			r.Groups, r.Metrics)
	} else {
		fmt.Fprintf(w, "check: FAIL — %d drift(s) across %d groups:\n", len(r.Drifts), r.Groups)
		for _, d := range r.Drifts {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if len(r.Extra) > 0 {
		names := make([]string, 0, len(r.Extra))
		for _, k := range r.Extra {
			names = append(names, fmt.Sprintf("%s/%s", k.Experiment, k.Variant))
		}
		sort.Strings(names)
		fmt.Fprintf(w, "note: %d fresh group(s) not in baseline (spec grew?): %s\n",
			len(r.Extra), strings.Join(names, ", "))
	}
}
