package paper

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfsm"
	"repro/pkg/coest"
)

// tinySpec is a fast everything-kind grid for runner tests.
func tinySpec() *Spec {
	return &Spec{
		Name:     "tiny",
		Repeats:  2,
		Seed:     1,
		Packets:  2,
		DMASizes: []int{4, 8},
		Experiments: []Experiment{
			{ID: "f1", Kind: KindSeparate, System: "prodcons"},
			{ID: "f3", Kind: KindCharacterize},
			{ID: "f4", Kind: KindPathEnergy, Packets: 4},
			{ID: "t1", Kind: KindTable1},
			{ID: "t3", Kind: KindTable3},
			{ID: "f7", Kind: KindDSE},
			{ID: "pt", Kind: KindPartition, System: "prodcons"},
			{ID: "q", Kind: KindQuality},
			{ID: "sv", Kind: KindServing},
			{ID: "wf", Kind: KindWaveform},
		},
	}
}

// kindOf returns the spec's first experiment of a kind.
func kindOf(s *Spec, kind string) *Experiment {
	for i := range s.Experiments {
		if s.Experiments[i].Kind == kind {
			return &s.Experiments[i]
		}
	}
	panic("no experiment of kind " + kind)
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Repeats = 0 },
		func(s *Spec) { s.Packets = 0 },
		func(s *Spec) { s.DMASizes = nil },
		func(s *Spec) { s.Experiments = nil },
		func(s *Spec) { s.Experiments[0].ID = "" },
		func(s *Spec) { s.Experiments[1].ID = s.Experiments[0].ID },
		func(s *Spec) { s.Experiments[0].Kind = "table9" },
		func(s *Spec) { kindOf(s, KindTable1).System = "prodcons" }, // table kinds are tcpip-only
		func(s *Spec) { kindOf(s, KindDSE).System = "prodcons" },
		func(s *Spec) { kindOf(s, KindPathEnergy).System = "prodcons" },
		func(s *Spec) { kindOf(s, KindQuality).System = "automotive" },
		func(s *Spec) { kindOf(s, KindSeparate).System = "" }, // prodcons-only; empty means tcpip
		func(s *Spec) { kindOf(s, KindPartition).System = "automotive" },
		func(s *Spec) { s.Experiments[0].System = "nosuch" },
		func(s *Spec) { s.Experiments[0].DMASizes = []int{0} },
	}
	for i, mutate := range bad {
		s := DefaultSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	// The default grid regenerates every figure and table: it runs every
	// kind.
	for kind := range kindSystems {
		if !slices.ContainsFunc(DefaultSpec().Experiments, func(e Experiment) bool { return e.Kind == kind }) {
			t.Errorf("default spec has no %s experiment", kind)
		}
	}
}

// TestFig3ParamsDriveMacroModel: the parameter file the characterize kind
// writes is the macro-model itself. Estimating with it gives the energy of
// characterizing at run time, up to the nJ text round trip.
func TestFig3ParamsDriveMacroModel(t *testing.T) {
	spec := tinySpec()
	e := *kindOf(spec, KindCharacterize)
	spec.Experiments = []Experiment{e}
	dir, err := (&Runner{Spec: spec, OutRoot: t.TempDir(), Stamp: "f3"}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "analysis", e.ID+".params"))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := coest.ParseParamFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcpip", "prodcons", "automotive"} {
		sys, err := coest.BySystemName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coest.Estimate(context.Background(), sys, coest.WithMacroModel())
		if err != nil {
			t.Fatal(err)
		}
		got, err := coest.Estimate(context.Background(), sys, coest.WithMacroModelParams(pf))
		if err != nil {
			t.Fatal(err)
		}
		if rel := relDiff(got.Total.Joules(), want.Total.Joules()); rel > 1e-12 {
			t.Errorf("%s: parameter-file total %v, characterized %v (rel %.3g)", name, got.Total, want.Total, rel)
		}
	}
}

// TestCommittedSpecs pins the committed grids: experiments.json is the
// built-in default, and each committed baseline has rows for every
// experiment of its spec — Check only notes groups missing from a baseline,
// so an experiment added without regenerating the baseline would go
// ungated.
func TestCommittedSpecs(t *testing.T) {
	full, err := LoadSpec("../../scripts/paper/experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, DefaultSpec()) {
		t.Error("scripts/paper/experiments.json differs from DefaultSpec (regenerate it with paperrun -print-spec)")
	}
	for spec, baseline := range map[string]string{
		"experiments.json":       "baseline",
		"experiments_smoke.json": "baseline-smoke",
	} {
		s, err := LoadSpec(filepath.Join("../../scripts/paper", spec))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ReadResultsFile(filepath.Join("../../paper_runs", baseline, "results.csv"))
		if err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		for _, r := range rows {
			have[r.Experiment] = true
		}
		for _, e := range s.Experiments {
			if !have[e.ID] {
				t.Errorf("%s: experiment %q has no rows in paper_runs/%s", spec, e.ID, baseline)
			}
		}
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "experiments.json")
	b, err := json.Marshal(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "lajolo-rdl00" || len(s.Experiments) != len(DefaultSpec().Experiments) {
		t.Fatalf("round-tripped spec = %+v", s)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing spec succeeded")
	}
}

func TestResultsCSVRoundTrip(t *testing.T) {
	rows := []Row{
		{
			RunID: "r1", Experiment: "t1", Kind: KindTable1, System: "tcpip",
			Variant: "base", DMA: 8, Packets: 4, Repeat: 1, Seed: 7,
			EnergyJ: 1.25e-5, SWJ: 9.5e-6, HWJ: 3.5e-8, BusJ: 2.7e-7,
			SimNS: 415200, WallNS: 123456, ISSCalls: 20, ISSInsts: 5192, GateExecs: 4,
			BudgetBoundJ: 1e-10, BudgetCI95J: 1.6e-11, BudgetUncal: true,
			AttribTotalJ: 1.25e-5, PeakW: 0.29, PeakAtNS: 10000,
		},
		{RunID: "r1", Experiment: "sv", Kind: KindServing, System: "prodcons", Variant: servCachedWarm, DMA: 16},
	}
	var sb strings.Builder
	if err := WriteResults(&sb, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResults(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Errorf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], rows[i])
		}
	}
	if _, err := ReadResults(strings.NewReader("")); err == nil {
		t.Fatal("empty results parsed")
	}
}

func TestAnalyzeStats(t *testing.T) {
	mk := func(rep int, wall int64) Row {
		return Row{RunID: "r", Experiment: "t1", Kind: KindTable1, Variant: "base",
			DMA: 4, Repeat: rep, EnergyJ: 2e-6, WallNS: wall}
	}
	a := Analyze([]Row{mk(0, 100), mk(1, 200), mk(2, 300)})
	k := GroupKey{Experiment: "t1", Kind: KindTable1, Variant: "base", DMA: 4}
	s, ok := a.Stat(k, "wall_ns")
	if !ok {
		t.Fatal("group not found")
	}
	if s.N != 3 || s.Mean != 200 || s.Min != 100 || s.Max != 300 {
		t.Fatalf("wall stat = %+v", s)
	}
	wantStd := math.Sqrt((100.0*100 + 0 + 100*100) / 3) // population std
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Fatalf("std = %g, want %g", s.Std, wantStd)
	}
	wantCI := 1.96 * wantStd / math.Sqrt(3)
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", s.CI95, wantCI)
	}
	if e, _ := a.Stat(k, "energy_j"); e.Std != 0 || e.Mean != 2e-6 {
		t.Fatalf("energy stat = %+v", e)
	}
	if _, ok := a.Stat(k, "nosuch"); ok {
		t.Fatal("unknown metric found")
	}
	if _, ok := a.Stat(GroupKey{Experiment: "zz"}, "energy_j"); ok {
		t.Fatal("unknown group found")
	}

	// Variants of one experiment at one DMA size group apart, in
	// first-appearance order.
	sv := func(variant string, rep int) Row {
		return Row{Experiment: "sv", Kind: KindServing, Variant: variant, DMA: 4, Repeat: rep, EnergyJ: 1e-6}
	}
	a = Analyze([]Row{sv(servCold, 0), sv(servWarm, 0), sv(servCold, 1), sv(servWarm, 1)})
	want := []GroupKey{
		{Experiment: "sv", Kind: KindServing, Variant: servCold, DMA: 4},
		{Experiment: "sv", Kind: KindServing, Variant: servWarm, DMA: 4},
	}
	if keys := a.Keys(); len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("serving keys = %+v, want %+v", keys, want)
	}
	if s, _ := a.Stat(want[1], "energy_j"); s.N != 2 {
		t.Fatalf("warm group holds %d repeats, want 2", s.N)
	}
}

func TestCheckGate(t *testing.T) {
	base := []Row{
		{Experiment: "t1", Kind: KindTable1, Variant: "base", DMA: 4, EnergyJ: 1e-5, ISSCalls: 20},
		{Experiment: "t1", Kind: KindTable1, Variant: "ecache", DMA: 4, EnergyJ: 1.0001e-5, ISSCalls: 17},
	}

	// Identical runs pass.
	if res := Check(base, base); !res.OK() {
		t.Fatalf("identical runs drifted: %+v", res.Drifts)
	}

	// Energy drift beyond tolerance fails.
	drifted := append([]Row(nil), base...)
	drifted[0].EnergyJ *= 1.01
	res := Check(base, drifted)
	if res.OK() || res.Drifts[0].Metric != "energy_j" {
		t.Fatalf("1%% energy drift not caught: %+v", res)
	}
	if !strings.Contains(res.Drifts[0].String(), "t1/base/dma=4") {
		t.Fatalf("drift rendering = %q", res.Drifts[0].String())
	}

	// A vanished baseline group fails; an extra fresh group only notes.
	res = Check(base, base[:1])
	if res.OK() {
		t.Fatal("missing group passed")
	}
	serving := append(append([]Row(nil), base...),
		Row{Experiment: "sv", Kind: KindServing, Variant: servCold, DMA: 4, EnergyJ: 1},
		Row{Experiment: "sv", Kind: KindServing, Variant: servWarm, DMA: 4, EnergyJ: 1})
	res = Check(serving, serving[:3])
	if res.OK() || len(res.Drifts) != 1 ||
		res.Drifts[0].String() != "sv/warm/dma=4: group missing from fresh run" {
		t.Fatalf("missing serving variant not caught: %+v", res.Drifts)
	}
	extra := append(append([]Row(nil), base...),
		Row{Experiment: "new", Kind: KindServing, Variant: servCold, EnergyJ: 1})
	res = Check(base, extra)
	if !res.OK() || len(res.Extra) != 1 {
		t.Fatalf("extra group mishandled: %+v", res)
	}

	// wall_ns is never gated: it measures the machine, not the answer.
	slow := append([]Row(nil), base...)
	slow[0].WallNS = 1 << 40
	if res := Check(base, slow); !res.OK() {
		t.Fatalf("wall drift gated: %+v", res.Drifts)
	}

	// The drift budgets: 0.2% for energies, 0.1% for counters, 10% for
	// budget metrics.
	for metric, want := range map[string]float64{
		"energy_j": 0.002, "peak_w": 0.002, "iss_calls": 0.001, "sim_ns": 0.001,
		"budget_bound_j": 0.10, "budget_ci95_j": 0.10,
	} {
		if tol, gated := metricClass(metric); !gated || tol != want {
			t.Errorf("%s: tolerance %g (gated %v), want %g", metric, tol, gated, want)
		}
	}
}

// TestCheckNonFinite: a NaN or an infinity that differs from its baseline
// is a drift, however loose the tolerance.
func TestCheckNonFinite(t *testing.T) {
	row := func(e float64) []Row {
		return []Row{{Experiment: "t1", Kind: KindTable1, Variant: "base", DMA: 4, EnergyJ: e}}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name        string
		base, fresh float64
		drifts      int
	}{
		{"NaN vs finite", 1e-6, nan, 1},
		{"+Inf vs finite", 1e-6, inf, 1},
		{"-Inf vs finite", 1e-6, -inf, 1},
		{"finite vs NaN", nan, 1e-6, 1},
		{"NaN vs NaN", nan, nan, 1},
		{"+Inf vs -Inf", inf, -inf, 1},
		{"identical finite", 1e-6, 1e-6, 0},
		{"identical +Inf", inf, inf, 0},
	} {
		res := Check(row(tc.base), row(tc.fresh))
		if len(res.Drifts) != tc.drifts {
			t.Errorf("%s: %d drifts, want %d: %+v", tc.name, len(res.Drifts), tc.drifts, res.Drifts)
		} else if tc.drifts > 0 && res.Drifts[0].Metric != "energy_j" {
			t.Errorf("%s: drift on %s, want energy_j", tc.name, res.Drifts[0].Metric)
		}
	}

	// The repeat-determinism self-check rejects a non-finite repeat too.
	for _, e := range []float64{nan, inf, -inf} {
		rows := []Row{
			{Variant: "base", DMA: 4, Repeat: 0, EnergyJ: 1e-6},
			{Variant: "base", DMA: 4, Repeat: 1, EnergyJ: e},
		}
		if err := checkRepeatDeterminism(rows); err == nil {
			t.Errorf("repeat energy %g passed the determinism check", e)
		}
	}
	if err := checkRepeatDeterminism([]Row{
		{Variant: "base", DMA: 4, Repeat: 0, EnergyJ: nan},
		{Variant: "base", DMA: 4, Repeat: 1, EnergyJ: nan},
	}); err == nil {
		t.Error("NaN repeats passed the determinism check")
	}
}

func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tiny grid")
	}
	dirRoot := t.TempDir()
	r := &Runner{Spec: tinySpec(), OutRoot: dirRoot, Stamp: "t0"}
	dir, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dir != filepath.Join(dirRoot, "t0") {
		t.Fatalf("run dir = %s", dir)
	}
	for _, f := range []string{
		"manifest.json", "results.csv",
		"logs/f1.log", "logs/f3.log", "logs/f4.log", "logs/t1.log", "logs/t3.log", "logs/f7.log",
		"logs/pt.log", "logs/q.log", "logs/sv.log", "logs/wf.log",
		"analysis/summary_grouped.csv", "analysis/tables.md", "analysis/waveform-wf.csv", "analysis/f3.params",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}

	rows, err := ReadResultsFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// Per 2 repeats: 4 separate rows, one row per macro-operation, 1
	// path-energy row, 2 tables x 2 dma x 2 variants, 6 priorities x 2 dma,
	// 4 partitions, 1 quality row, 4 serving variants, 1 waveform row.
	if want := 2 * (4 + int(cfsm.NumOps) + 1 + 8 + 12 + 4 + 1 + 4 + 1); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row.RunID != "t0" || row.EnergyJ <= 0 {
			t.Fatalf("bad row provenance: %+v", row)
		}
	}

	// The manifest records the spec snapshot, seed, and per-experiment phases.
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tool   string `json:"tool"`
		Seed   int64  `json:"seed"`
		Phases []struct {
			Name string `json:"name"`
		} `json:"phases"`
		Config Spec `json:"config"`
	}
	if err := json.Unmarshal(mb, &man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "paperrun" || man.Seed != 1 || man.Config.Name != "tiny" {
		t.Fatalf("manifest provenance = %+v", man)
	}
	phases := map[string]bool{}
	for _, p := range man.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"f1", "f3", "f4", "t1", "t3", "f7", "pt", "q", "sv", "wf", "analyze"} {
		if !phases[want] {
			t.Errorf("manifest missing phase %s (got %v)", want, man.Phases)
		}
	}

	// The generated tables cover every experiment of the grid.
	tb, err := os.ReadFile(filepath.Join(dir, "analysis", "tables.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 1(b)", "Fig 3", "Fig 4(b)", "Table 1", "Table 3", "Fig 7", "partition",
		"Estimation quality", "Serving warmth", "Peak power", "run t0"} {
		if !strings.Contains(string(tb), want) {
			t.Errorf("tables.md missing %q", want)
		}
	}

	// A same-spec rerun passes the regression gate against the first run.
	r2 := &Runner{Spec: tinySpec(), OutRoot: dirRoot, Stamp: "t1"}
	dir2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckDirs(dir, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("same-spec rerun drifted: %+v", res.Drifts)
	}
}
