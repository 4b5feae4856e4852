package coest_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/pkg/coest"
)

func quickTCPIP() coest.TCPIPParams {
	p := coest.DefaultTCPIPParams()
	p.Packets = 2
	return p
}

func TestEstimate(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 || rep.SimulatedTime <= 0 {
		t.Fatalf("empty report: %v", rep)
	}
	if rep.ISSCalls == 0 {
		t.Fatal("base run must invoke the ISS")
	}
}

func TestEstimateIsRepeatable(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	a, err := coest.Estimate(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coest.Estimate(context.Background(), sys, coest.WithDMASize(64))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total == b.Total {
		t.Fatal("DMA size 64 must change the estimate")
	}
	c, err := coest.Estimate(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != c.Total {
		t.Fatalf("re-estimating the same system must reproduce the result: %v vs %v", a.Total, c.Total)
	}
}

func TestOptions(t *testing.T) {
	ctx := context.Background()
	sys := coest.TCPIP(quickTCPIP())

	cached, err := coest.Estimate(ctx, sys, coest.WithEnergyCache())
	if err != nil {
		t.Fatal(err)
	}
	if cached.SWECache.Lookups == 0 {
		t.Fatal("WithEnergyCache must engage the energy cache")
	}

	sep, err := coest.Estimate(ctx, sys, coest.WithSeparateEstimation())
	if err != nil {
		t.Fatal(err)
	}
	if sep.Mode.String() != "separate" {
		t.Fatalf("mode = %v", sep.Mode)
	}

	var traced bool
	if _, err := coest.Estimate(ctx, sys,
		coest.WithTraceSink(coest.NewTextTraceSink(func(string) { traced = true }))); err != nil {
		t.Fatal(err)
	}
	if !traced {
		t.Fatal("WithTraceSink saw no events")
	}

	sampled, err := coest.Estimate(ctx, sys, coest.WithSampling(), coest.WithBusCompaction(32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.BusCompaction == nil {
		t.Fatal("WithBusCompaction must produce a compaction report")
	}
}

func TestBadOption(t *testing.T) {
	if _, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()), coest.WithDMASize(0)); err == nil {
		t.Fatal("WithDMASize(0) must fail")
	}
}

func TestMacroModelSkipsISS(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()), coest.WithMacroModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ISSCalls != 0 {
		t.Fatalf("macro-modeled run invoked the ISS %d times", rep.ISSCalls)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithDeadline(time.Microsecond))
	if !errors.Is(err, coest.ErrSimTimeExceeded) {
		t.Fatalf("err = %v, want ErrSimTimeExceeded", err)
	}
	// The same bound as a plain MaxSimTime is a normal truncation.
	if _, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithMaxSimTime(time.Microsecond)); err != nil {
		t.Fatalf("soft bound must truncate, not fail: %v", err)
	}
}

// TestSweepMatchesSerialEstimates is the public-API determinism guarantee:
// a parallel Sweep reproduces point-by-point Estimate calls bit-identically.
func TestSweepMatchesSerialEstimates(t *testing.T) {
	grid := coest.TCPIPGrid(quickTCPIP(), []int{0, 5}, []int{2, 64})
	results, err := coest.Sweep(context.Background(), grid, coest.WithWorkers(4), coest.WithEnergyCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != grid.N {
		t.Fatalf("results = %d, want %d", len(results), grid.N)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		sys, err := grid.Build(i)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := coest.Estimate(context.Background(), sys, coest.WithEnergyCache())
		if err != nil {
			t.Fatal(err)
		}
		a, b := *serial, *r.Report
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d: sweep report differs from serial estimate", i)
		}
	}
	if reports := coest.Reports(results); len(reports) != grid.N || reports[0].Total <= 0 {
		t.Fatal("Reports flattening broken")
	}
}

// sweepReports runs grid through Sweep and returns its reports in index
// order with the wall times zeroed, so runs compare bit for bit.
func sweepReports(t *testing.T, grid coest.Grid, opts ...coest.Option) []coest.Report {
	t.Helper()
	results, err := coest.Sweep(context.Background(), grid, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != grid.N {
		t.Fatalf("results = %d, want %d", len(results), grid.N)
	}
	reps := make([]coest.Report, len(results))
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		reps[i] = *r.Report
		reps[i].Wall = 0
	}
	return reps
}

// TestTCPIPGridOrder pins the Fig 7 grid layout: perm-major, DMA-minor,
// with a non-empty estimate at every point.
func TestTCPIPGridOrder(t *testing.T) {
	p := coest.DefaultTCPIPParams()
	p.Packets = 3
	perms, dmas := []int{0, 3}, []int{2, 64}
	got := sweepReports(t, coest.TCPIPGrid(p, perms, dmas))
	want := []struct{ perm, dma int }{{0, 2}, {0, 64}, {3, 2}, {3, 64}}
	for i, w := range want {
		if got[i].Total <= 0 || got[i].SimulatedTime <= 0 {
			t.Fatalf("point %d empty", i)
		}
		pt := p
		pt.PriorityPerm, pt.DMASize = w.perm, w.dma
		serial, err := coest.Estimate(context.Background(), coest.TCPIP(pt))
		if err != nil {
			t.Fatal(err)
		}
		serial.Wall = 0
		if !reflect.DeepEqual(*serial, got[i]) {
			t.Fatalf("point %d is not perm %d, DMA %d", i, w.perm, w.dma)
		}
	}
}

// TestSweepWorkersMatchSequential: a 4-worker Sweep gives the one-worker
// Sweep's points, in the same order, bit for bit.
func TestSweepWorkersMatchSequential(t *testing.T) {
	p := coest.DefaultTCPIPParams()
	p.Packets = 3
	grid := coest.TCPIPGrid(p, []int{0, 5}, []int{2, 64})
	seq := sweepReports(t, grid, coest.WithWorkers(1))
	par := sweepReports(t, grid, coest.WithWorkers(4))
	for i := range seq {
		if !reflect.DeepEqual(par[i], seq[i]) {
			t.Fatalf("point %d differs: %v vs %v", i, par[i].Total, seq[i].Total)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	grid := coest.TCPIPGrid(quickTCPIP(), []int{0, 1, 2, 3, 4, 5}, []int{2, 4, 8, 16})
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	results, err := coest.Sweep(ctx, grid,
		coest.WithWorkers(2),
		coest.WithProgress(func(m coest.PointMetrics) {
			seen++
			if seen == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == 0 || len(results) >= grid.N {
		t.Fatalf("partial results = %d of %d", len(results), grid.N)
	}
	for j, r := range results {
		if j > 0 && r.Index <= results[j-1].Index {
			t.Fatal("partial results must stay index-ordered")
		}
	}
}

func TestSweepProgressMetrics(t *testing.T) {
	grid := coest.TCPIPGrid(quickTCPIP(), []int{0}, []int{2, 16})
	var ms []coest.PointMetrics
	_, err := coest.Sweep(context.Background(), grid,
		coest.WithProgress(func(m coest.PointMetrics) { ms = append(ms, m) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != grid.N {
		t.Fatalf("metrics = %d, want %d", len(ms), grid.N)
	}
	for _, m := range ms {
		if m.ISSInsts == 0 || m.Wall <= 0 || m.Total != grid.N {
			t.Fatalf("bad metrics record %+v", m)
		}
	}
}

func TestBySystemName(t *testing.T) {
	for _, name := range []string{"tcpip", "prodcons", "automotive"} {
		if _, err := coest.BySystemName(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coest.BySystemName("nope"); err == nil {
		t.Fatal("unknown system must fail")
	}
}

func TestParseCFSM(t *testing.T) {
	src, err := os.ReadFile("../../examples/dsl/thermostat.cfsm")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := coest.ParseCFSM("thermostat", string(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coest.Estimate(context.Background(), sys, coest.WithMaxSimTime(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 {
		t.Fatal("zero energy")
	}
}
