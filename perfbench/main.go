// Command perfbench is the repository's end-to-end benchmark. One run is
// one fresh process that sets one workload up several times, verifies its
// answers against committed goldens, measures whole passes over a
// seed-ordered input list for a fixed time, and prints every metric by
// name with its unit. The last line of standard output is a JSON summary.
//
//	go run . --workload fig7-reference --seed 1 --seconds 20 --trace 0
//
// Workloads (LAYERS.md gives the layer each one isolates):
//
//	fig7-reference  coest.Sweep over the Fig 7 priority × DMA grid (gate-bound)
//	sw-partition    Session.EstimateBatch with checksum in software (ISS-bound)
//	fleet-warm      router and two shards on loopback, two closed-loop clients
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: the timed phase is split into an untraced part (and,
// for fleet-warm, a part sent straight to the owning shard) and a part run
// under a span scope with a CPU profile of the process.
//
// --write-golden DIR regenerates the oracle's goldens on the reference path.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// workers is both the estimation worker count of the DSE workloads and the
// number of fleet-warm load goroutines: the benchmark machine's two cores.
const workers = 2

// A run sets its workload up at least minSetups times and for at least
// setupTime, so that setup_s, the median, rests on enough set-ups even when
// one takes milliseconds.
const (
	minSetups = 5
	setupTime = 2 * time.Second
)

type workload interface {
	name() string
	loadGolden() error
	// setUp builds everything the timed phase uses from scratch and runs
	// one verified pass over the input list.
	setUp(ctx context.Context, rc *runCounts) (setupResult, error)
	// pass runs one whole pass over the seed-ordered input list.
	pass(ctx context.Context, ph *phase) error
	// layers adds the workload's own per-layer metrics.
	layers(out map[string]float64, rp *runPhases)
	close(ctx context.Context) error
}

type setupResult struct {
	wall    time.Duration
	compile time.Duration // compile and synthesis inside the set-up
}

// runCounts tallies verified operations over the whole run.
type runCounts struct {
	attempted, failed int
	errs              []error
}

// note keeps the first few failures for the report.
func (rc *runCounts) note(err error) {
	if err != nil && len(rc.errs) < 5 {
		rc.errs = append(rc.errs, err)
	}
}

type passMode int

const (
	plain  passMode = iota // untraced, through the workload's entry point
	direct                 // fleet-warm: straight to the design's owning shard
	traced                 // under a span scope, with a CPU profile
)

func (m passMode) String() string { return [...]string{"plain", "direct", "traced"}[m] }

// phase is one timed phase: whole passes until its time is up.
type phase struct {
	mode passMode
	runCounts
	points   int       // verified points (fleet-warm: requests)
	lat      []float64 // per-point latency, ms
	rates    []float64 // verified points per granted CPU second, per window
	rawRates []float64 // verified points per wall second, per window
	d        delta

	spans         *spanTotals        // traced phases
	layerNS       map[string]float64 // CPU profile by layer, traced phases
	missingTraces atomic.Int64       // fleet-warm request traces not found

	// fleet-warm
	cachedLat        []float64
	rttSumMS         float64
	cachedN, covered int
	simNS, energyJ   float64
}

type runPhases struct {
	plain, direct, traced *phase
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig7-reference, sw-partition or fleet-warm")
	seed := fs.Int64("seed", 1, "input seed: payload data and request/point order")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced, CPU-profiled run")
	goldenDir := fs.String("write-golden", "", "regenerate the goldens into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *goldenDir != "" {
		if err := writeGoldens(ctx, *goldenDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := newWorkload(*name, *seed)
	if err == nil {
		err = w.loadGolden()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(ctx, w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if cerr := w.close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fig7-reference":
		return newFig7(seed), nil
	case "sw-partition":
		return newSWPartition(seed), nil
	case "fleet-warm":
		return newFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig7-reference, sw-partition or fleet-warm)", name)
}

// result is everything one run reports.
type result struct {
	counts   runCounts
	endToEnd map[string]float64
	layers   map[string]float64
}

// measure sets the workload up repeatedly, then runs the timed phases.
func measure(ctx context.Context, w workload, dur time.Duration, traceRun bool) (*result, error) {
	res := &result{endToEnd: map[string]float64{}, layers: map[string]float64{}}
	var walls, rawWalls, compiles []float64
	start := time.Now()
	win, err := newWindow()
	if err != nil {
		return nil, err
	}
	for i := 0; i < minSetups || time.Since(start) < setupTime; i++ {
		sctx, spans := ctx, newSpanTotals()
		if traceRun {
			// Traced set-ups let compile spans inside passes count as
			// set-up compile time; setup_s comes from untraced runs only.
			sctx = telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(spans, telemetry.NewTraceID()))
		}
		s, err := w.setUp(sctx, &res.counts)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name(), i+1, err)
		}
		rawWalls = append(rawWalls, s.wall.Seconds())
		compiles = append(compiles, float64(s.compile)/1e6+spans.ms("compile"))
		if time.Since(win.start) >= windowLen/2 {
			if walls, err = win.rescale(walls, rawWalls); err != nil {
				return nil, err
			}
		}
	}
	if walls, err = win.rescale(walls, rawWalls); err != nil {
		return nil, err
	}

	var rp runPhases
	if !traceRun {
		rp.plain, err = timedPhase(ctx, w, plain, dur)
	} else {
		split := dur / 2
		if _, fleet := w.(*fleetWL); fleet {
			split = dur / 3
			if rp.direct, err = timedPhase(ctx, w, direct, split); err != nil {
				return nil, err
			}
		}
		if rp.plain, err = timedPhase(ctx, w, plain, split); err == nil {
			rp.traced, err = timedPhase(ctx, w, traced, split)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, ph := range []*phase{rp.plain, rp.direct, rp.traced} {
		if ph != nil {
			res.counts.attempted += ph.attempted
			res.counts.failed += ph.failed
			for _, e := range ph.errs {
				res.counts.note(e)
			}
		}
	}
	if rp.traced != nil {
		if n := rp.traced.missingTraces.Load(); n > 0 {
			res.counts.note(fmt.Errorf("%d request traces were not found; span.* undercount", n))
		}
	}

	p := rp.plain
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Medians over set-ups and passes keep one stalled stretch of a
	// shared host from moving a run's figures.
	res.endToEnd["setup_s"] = median(walls)
	res.endToEnd["points_per_s"] = median(p.rates)
	res.endToEnd["peak_rss_mb"] = rss
	res.layers["host.wall_points_per_s"] = median(p.rawRates)
	res.layers["host.wall_setup_s"] = median(rawWalls)
	p50, err := percentile(p.lat, 0.5)
	if err != nil {
		return nil, err
	}
	res.endToEnd["latency_ms_p50"] = p50
	res.layers["latency.samples"] = float64(len(p.lat))
	if p99, err := percentile(p.lat, 0.99); err == nil {
		res.layers["latency.ms_p99"] = p99
	}

	layerMetrics(res.layers, p, median(compiles))
	w.layers(res.layers, &rp)
	if rp.traced != nil {
		tracedLayers(res.layers, rp.plain, rp.traced)
	}
	return res, nil
}

// timedPhase runs whole passes until dur has elapsed. A traced phase runs
// under a span scope and records a CPU profile of the process.
func timedPhase(ctx context.Context, w workload, mode passMode, dur time.Duration) (*phase, error) {
	runtime.GC()
	ph := &phase{mode: mode}
	var prof bytes.Buffer
	if mode == traced {
		ph.spans = newSpanTotals()
		ctx = telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(ph.spans, telemetry.NewTraceID()))
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	before, err := takeSnapshot()
	win := window{start: before.at, host: before.host}
	for points := 0; err == nil; {
		if err = w.pass(ctx, ph); err != nil {
			break
		}
		last := time.Since(before.at) >= dur
		if last || time.Since(win.start) >= windowLen {
			err = win.closePasses(ph, points)
			points = ph.points
		}
		if last {
			break
		}
	}
	after, serr := takeSnapshot()
	if mode == traced {
		pprof.StopCPUProfile()
	}
	if err = errors.Join(err, serr); err != nil {
		return nil, fmt.Errorf("%s: %s phase: %w", w.name(), mode, err)
	}
	ph.d = after.since(before)
	if mode == traced {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		ph.layerNS = attribute(p)
	}
	return ph, nil
}

// windowLen is the length of the windows a timed phase is cut into: long
// enough for /proc/stat's 10 ms ticks to measure steal within a few
// percent.
const windowLen = time.Second

// window is a stretch of whole passes or set-ups over which host steal is
// measured. Durations inside it are scaled to the CPU time the host
// granted, so that time the hypervisor gave to other guests does not count
// against the program.
type window struct {
	start time.Time
	host  hostCPU
	first int // index of the window's first pass rate or set-up
}

func newWindow() (window, error) {
	h, err := readHostCPU()
	return window{start: time.Now(), host: h}, err
}

// next ends the window and returns its granted CPU share and wall time,
// starting the next window at the same instant.
func (win *window) next(first int) (granted, wall float64, err error) {
	now := time.Now()
	h, err := readHostCPU()
	if err != nil {
		return 0, 0, err
	}
	granted, wall = h.since(win.host).granted(), now.Sub(win.start).Seconds()
	*win = window{start: now, host: h, first: first}
	return granted, wall, nil
}

// rescale appends the window's set-up times, scaled, to walls.
func (win *window) rescale(walls, raw []float64) ([]float64, error) {
	first := win.first
	g, _, err := win.next(len(raw))
	for _, w := range raw[first:] {
		walls = append(walls, w*g)
	}
	return walls, err
}

// closePasses records the window's throughput over its passes.
func (win *window) closePasses(ph *phase, points int) error {
	g, wall, err := win.next(0)
	ph.rawRates = append(ph.rawRates, float64(ph.points-points)/wall)
	ph.rates = append(ph.rates, float64(ph.points-points)/(wall*g))
	return err
}

// layerMetrics derives the per-layer metrics every run reports: growth of
// the program's counters and the runtime's and host's accounting over the
// untraced timed phase, per verified point where that is the unit, and the
// set-up's compile time.
func layerMetrics(out map[string]float64, p *phase, compileMS float64) {
	n := float64(p.points)
	d := p.d
	out["gate.evals_per_point"] = ratio(d.counter("coest_gate_evals_total"), n)
	out["gate.cycles_per_point"] = ratio(d.counter("coest_gate_cycles_total"), n)
	out["iss.insts_per_point"] = ratio(d.counter("coest_iss_insts_total"), n)
	out["bus.grants_per_point"] = ratio(d.counter("coest_bus_grants_total"), n)
	out["rtos.dispatches_per_point"] = ratio(d.counter("coest_rtos_dispatches_total"), n)
	out["ecachesync.paths_pushed"] = d.counter("ecachesync_paths_pushed_total")
	out["setup.compile_ms"] = compileMS
	out["alloc.kb_per_point"] = ratio(d.allocBytes()/1024, n)
	out["gc.cpu_pct"] = d.gcCPUPct()
	out["gc.count"] = d.gcCycles()
	for _, st := range []string{"admission", "session", "sweep", "respond"} {
		out["serve.stage_ms."+st] = d.stageMeanMS("serve_stage_" + st + "_seconds")
	}
	out["router.retries"] = d.counter("router_retries_total")
	out["serve.compiles"] = d.counter("serve_sessions_total")
	out["host.cpu_ms_per_point"] = ratio(float64(d.procCPU)/1e6, n)
	out["host.steal_pct"] = d.stealPct()
}

// tracedLayers derives the per-layer metrics of the traced phase: CPU
// profile self time and span busy time per point, and the cost of tracing.
func tracedLayers(out map[string]float64, p, t *phase) {
	n := float64(t.points)
	var total, named float64
	for layer, ns := range t.layerNS {
		total += ns
		for _, l := range namedLayers {
			if l == layer {
				named += ns
			}
		}
	}
	for _, l := range namedLayers {
		out["self_ms."+l] = ratio(t.layerNS[l]/1e6, n)
	}
	out["trace.attributed_pct"] = 100 * ratio(named, total)
	out["span.gate_busy_ms"] = ratio(t.spans.ms("gate"), n)
	out["span.iss_ms"] = ratio(t.spans.ms("iss"), n)
	out["span.compile_ms"] = ratio(t.spans.ms("compile"), n)
	out["span.rebind_ms"] = ratio(t.spans.ms("rebind"), n)
	out["trace.overhead_pct"] = 100 * (ratio(median(p.rates), median(t.rates)) - 1)
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"points_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"gate.evals_per_point", "count"},
	{"gate.cycles_per_point", "count"},
	{"self_ms.gate", "ms"},
	{"span.gate_busy_ms", "ms"},
	{"iss.insts_per_point", "count"},
	{"icache.accesses_per_point", "count"},
	{"self_ms.iss", "ms"},
	{"self_ms.cachesim", "ms"},
	{"span.iss_ms", "ms"},
	{"bus.grants_per_point", "count"},
	{"rtos.dispatches_per_point", "count"},
	{"sim.simulated_us_per_point", "us"},
	{"energy.uj_per_point", "uJ"},
	{"self_ms.master", "ms"},
	{"ecache.hit_ratio", "ratio"},
	{"ecache.budget_coverage", "ratio"},
	{"ecachesync.paths_pushed", "count"},
	{"self_ms.accel", "ms"},
	{"setup.compile_ms", "ms"},
	{"self_ms.compile", "ms"},
	{"span.compile_ms", "ms"},
	{"span.rebind_ms", "ms"},
	{"self_ms.engine", "ms"},
	{"alloc.kb_per_point", "kB"},
	{"gc.cpu_pct", "%"},
	{"gc.count", "count"},
	{"self_ms.gc", "ms"},
	{"serve.stage_ms.admission", "ms"},
	{"serve.stage_ms.session", "ms"},
	{"serve.stage_ms.sweep", "ms"},
	{"serve.stage_ms.respond", "ms"},
	{"serve.overhead_ms", "ms"},
	{"router.hop_ms_p50", "ms"},
	{"router.retries", "count"},
	{"serve.compiles", "count"},
	{"self_ms.serving", "ms"},
	{"host.cpu_ms_per_point", "ms"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_pct", "%"},
	{"latency.samples", "count"},
	{"latency.ms_p99", "ms"},
	{"host.wall_points_per_s", "1/s"},
	{"host.wall_setup_s", "s"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, then the JSON summary
// line: end-to-end metrics for untraced runs, per-layer metrics for traced
// ones.
func (r *result) print(w io.Writer, traceRun bool) error {
	show := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(w, "# %s\n", title)
		for _, m := range defs {
			if v, ok := vals[m.name]; ok {
				fmt.Fprintf(w, "%-28s %16.6f %s\n", m.name, v, m.unit)
			}
		}
	}
	show("end-to-end", endToEndMetrics, r.endToEnd)
	show("per-layer", perLayerMetrics, r.layers)
	fmt.Fprintf(w, "# attempted %d, failed %d, fail_ratio %g\n",
		r.counts.attempted, r.counts.failed, ratio(float64(r.counts.failed), float64(r.counts.attempted)))
	for _, e := range r.counts.errs {
		fmt.Fprintf(w, "# note: %v\n", e)
	}

	defs, vals := endToEndMetrics, r.endToEnd
	if traceRun {
		defs, vals = perLayerMetrics, r.layers
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   r.counts.failed == 0 && r.counts.attempted > 0,
		Attempted: r.counts.attempted,
		Failed:    r.counts.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, m := range defs {
		out.Metrics[m.name] = jsonMetric{Value: vals[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeGoldens computes every golden file on the reference path.
func writeGoldens(ctx context.Context, dir string) error {
	write := func(name string, v any) error {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, filepath.Base(name)), append(raw, '\n'), 0o644)
	}
	for i, s := range goldenSeeds {
		for _, w := range []*dse{newFig7(int64(i)), newSWPartition(int64(i))} {
			if w.payloadSeed != s {
				return fmt.Errorf("seed %d maps to payload seed %d, want %d", i, w.payloadSeed, s)
			}
			g, err := w.referenceGolden(ctx)
			if err != nil {
				return err
			}
			if err := write(goldenName(w.workload, s), g); err != nil {
				return err
			}
		}
	}
	g, err := newFleet(0).referenceGolden(ctx)
	if err != nil {
		return err
	}
	return write("fleet-warm.json", g)
}
