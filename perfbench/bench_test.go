package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
)

func TestFleetSequenceIsSeededWithDeclaredShares(t *testing.T) {
	a, b := fleetSequence(7), fleetSequence(7)
	if len(a) != fleetDesigns*(fleetCached+len(dmaSizes)) {
		t.Fatalf("pass has %d requests", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave two different sequences at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if c := fleetSequence(8); equalRequests(a, c) {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
	cached, perDesign := 0, map[int]int{}
	perDMA := map[request]int{}
	for _, r := range a {
		perDesign[r.packets]++
		if r.dma == 0 {
			cached++
		} else {
			perDMA[r]++
		}
	}
	if 4*cached != 3*len(a) {
		t.Errorf("cached share %d/%d, want 3/4", cached, len(a))
	}
	for p := 1; p <= fleetDesigns; p++ {
		if perDesign[p]*fleetDesigns != len(a) {
			t.Errorf("tcpip/%d has %d of %d requests, want 1/%d", p, perDesign[p], len(a), fleetDesigns)
		}
		for _, d := range dmaSizes {
			if n := perDMA[request{packets: p, dma: d}]; n != 1 {
				t.Errorf("tcpip/%d at DMA %d appears %d times per pass, want 1", p, d, n)
			}
		}
	}
}

func equalRequests(a, b []request) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fakeEstimate answers a DSE pass from a golden set, with optional
// perturbations, through the workload's real verification path.
func fakeEstimate(golden []pointSig, perturb func(i int, r *coest.Report)) func(context.Context, []int, ...coest.Option) ([]coest.PointResult, error) {
	return func(_ context.Context, order []int, _ ...coest.Option) ([]coest.PointResult, error) {
		out := make([]coest.PointResult, len(order))
		for i, ci := range order {
			g := golden[ci]
			r := &coest.Report{SimulatedTime: units.Time(g.SimulatedNS), ISSCalls: g.ISSCalls, GateExecs: g.GateExecs,
				Total: units.Energy(g.TotalJ), SWEnergy: units.Energy(g.SWJ), HWEnergy: units.Energy(g.HWJ),
				BusEnergy: units.Energy(g.BusJ)}
			r.CacheStats.Accesses = g.ICacheAccesses
			if perturb != nil {
				perturb(ci, r)
			}
			out[i] = coest.PointResult{Index: i, Report: r}
		}
		return out, nil
	}
}

func TestOracleRejectsOnePerturbedEnergy(t *testing.T) {
	w := newFig7(1)
	if err := w.loadGolden(); err != nil {
		t.Fatal(err)
	}
	w.estimate = fakeEstimate(w.golden, nil)
	var rc runCounts
	if _, err := w.setUp(context.Background(), &rc); err != nil {
		t.Fatal(err)
	}
	if rc.failed != 0 || rc.attempted != len(w.names) {
		t.Fatalf("golden answers: %d of %d failed", rc.failed, rc.attempted)
	}

	const victim = 17
	w.estimate = fakeEstimate(w.golden, func(i int, r *coest.Report) {
		if i == victim {
			r.HWEnergy = units.Energy(math.Nextafter(r.HWEnergy.Joules(), 1))
		}
	})
	ph := &phase{}
	if err := w.pass(context.Background(), ph); err != nil {
		t.Fatal(err)
	}
	if ph.failed != 1 || ph.points != len(w.names)-1 {
		t.Fatalf("one-ulp change in %s: failed %d, verified %d", w.names[victim], ph.failed, ph.points)
	}

	// The same perturbation in the set-up pass fails against the goldens.
	rc = runCounts{}
	if _, err := w.setUp(context.Background(), &rc); err != nil {
		t.Fatal(err)
	}
	if rc.failed != 1 {
		t.Fatalf("set-up pass with one perturbed energy: %d failures", rc.failed)
	}
}

func TestFleetGoldenComparesEveryWireField(t *testing.T) {
	w := newFleet(1)
	if err := w.loadGolden(); err != nil {
		t.Fatal(err)
	}
	want := w.golden.Designs[2].DMA[3]
	pt := coestapi.PointResult{TotalJ: want.TotalJ, SWJ: want.SWJ, HWJ: want.HWJ,
		SimulatedNS: want.SimulatedNS, ISSCalls: want.ISSCalls}
	got := wireSig{TotalJ: pt.TotalJ, SWJ: pt.SWJ, HWJ: pt.HWJ, SimulatedNS: pt.SimulatedNS, ISSCalls: pt.ISSCalls}
	if got != want {
		t.Fatal("identical answer rejected")
	}
	got.SWJ = math.Nextafter(got.SWJ, 0)
	if got == want {
		t.Fatal("perturbed SW energy accepted")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted: only 9 lie beyond it")
	}
	v, err := percentile(samples(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(samples(21), 0.5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}

// countingWorkload moves a program counter heavily during set-up and by a
// fixed amount per point during passes.
type countingWorkload struct {
	c *telemetry.Counter
}

const countedPerPoint = 7

func (countingWorkload) name() string      { return "counting" }
func (countingWorkload) loadGolden() error { return nil }
func (w countingWorkload) setUp(_ context.Context, rc *runCounts) (setupResult, error) {
	w.c.Add(1_000_000)
	rc.attempted++
	time.Sleep(20 * time.Millisecond)
	return setupResult{wall: 20 * time.Millisecond}, nil
}
func (w countingWorkload) pass(_ context.Context, ph *phase) error {
	for i := 0; i < 10; i++ {
		w.c.Add(countedPerPoint)
		ph.attempted++
		ph.points++
		ph.lat = append(ph.lat, 1)
	}
	time.Sleep(5 * time.Millisecond)
	return nil
}
func (countingWorkload) layers(map[string]float64, *runPhases) {}
func (countingWorkload) close(context.Context) error           { return nil }

func TestCounterDeltasCoverTheTimedPhaseOnly(t *testing.T) {
	w := countingWorkload{c: telemetry.Default.Counter("coest_gate_evals_total", "")}
	res, err := measure(context.Background(), w, 50*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.layers["gate.evals_per_point"]; got != countedPerPoint {
		t.Fatalf("gate.evals_per_point = %v, want %d: set-up work leaked into the timed phase", got, countedPerPoint)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, 1); err != nil {
			t.Error(err)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers := attribute(p)
	var total float64
	for _, ns := range layers {
		total += ns
	}
	if total == 0 || layers["bench"] < 0.8*total {
		t.Fatalf("CPU burnt in package main attributed %v", layers)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/gate.(*Sim).Step", "/x/internal/gate/sim.go", "gate"},
		{"repro/internal/gate.(*Netlist).GateInto", "/x/internal/gate/netlist.go", "compile"},
		{"repro/internal/hwsyn.(*Exec).Stall", "/x/internal/hwsyn/exec.go", "gate"},
		{"repro/internal/hwsyn.Synthesize", "/x/internal/hwsyn/build.go", "compile"},
		{"repro/internal/sparc.Decode", "/x/internal/sparc/encode.go", "iss"},
		{"repro/internal/sparc.Assemble", "/x/internal/sparc/asm.go", "compile"},
		{"repro/pkg/coest/coestclient.(*Client).do", "/x/pkg/coest/coestclient/client.go", "serving"},
		{"net/http.(*conn).serve", "/go/src/net/http/server.go", "serving"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
	gc := []frame{{name: "runtime.scanobject"}, {name: "runtime.gcBgMarkWorker"}}
	if got := stackLayer(gc); got != "gc" {
		t.Errorf("background mark worker attributed to %q", got)
	}
}

func TestParseHostCPU(t *testing.T) {
	h, err := parseHostCPU("cpu  100 5 20 900 3 1 2 30 0 0")
	if err != nil {
		t.Fatal(err)
	}
	if h.total != 1061 || h.busy != 128 || h.steal != 30 {
		t.Fatalf("parsed %+v", h)
	}
	if g := h.granted(); math.Abs(g-128.0/158) > 1e-12 {
		t.Fatalf("granted share %v", g)
	}
}
