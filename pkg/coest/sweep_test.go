package coest_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cfsm"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
)

// Replay counters: hardware executions that started from a recorded
// course, and those of them that left it.
var (
	replays   = telemetry.Default.Counter("coest_hw_replays_total", "")
	fallbacks = telemetry.Default.Counter("coest_hw_replay_fallbacks_total", "")
)

// identical requires got to equal want bit for bit, wall time aside: every
// energy, the simulated time, the ISS calls, every per-machine row.
func identical(t *testing.T, what string, got, want *coest.Report) {
	t.Helper()
	a, b := *want, *got
	a.Wall, b.Wall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s differs:\n%v\nvs\n%v", what, b.String(), a.String())
	}
}

// sameReports requires every Sweep result to equal a cold Estimate of its
// grid point under the same options, bit for bit.
func sameReports(t *testing.T, grid coest.Grid, results []coest.PointResult, opts ...coest.Option) {
	t.Helper()
	if len(results) != grid.N {
		t.Fatalf("results = %d, want %d", len(results), grid.N)
	}
	for i, r := range results {
		sys, err := grid.Build(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coest.Estimate(context.Background(), sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		identical(t, fmt.Sprintf("point %d: sweep report against Estimate", i), r.Report, want)
	}
}

// readerSystem is one hardware process that, on each of ticks ticks,
// counts the tick and reads a word of shared memory words times: every
// execution starts from a state of its own (the count), and records a
// course with a state at each read, about 4 cycles apart. idle registers
// that no execution moves cost no gate evaluation, only recorded state:
// each puts 16 flops into every state. A tick comes every
// words*readerTick, time enough for the execution before it;
// readerTime(ticks, words) bounds a run that serves them all.
func readerSystem(ticks, words, idle int) *coest.System {
	b := cfsm.NewBuilder("reader")
	s := b.State("s")
	in := b.Input("TICK")
	cnt, w := b.Var("CNT", 0), b.Var("W", 0)
	for k := 0; k < idle; k++ {
		b.Var(fmt.Sprintf("IDLE%d", k), cfsm.Value(k))
	}
	b.On(s, in).Do(
		cfsm.Set(cnt, cfsm.Add(b.V(cnt), cfsm.Const(1))),
		cfsm.Repeat(cfsm.Const(cfsm.Value(words)), cfsm.MemRead(w, cfsm.Const(0))),
	)
	net := cfsm.NewNet()
	net.Add(b.MustBuild())
	net.EnvInputByName("TICK", "reader", "TICK")
	spec := &coest.Spec{
		Name:       "reader",
		Net:        net,
		Procs:      map[string]coest.ProcessConfig{"reader": {Mapping: coest.HW}},
		Periodic:   []coest.PeriodicStimulus{{Input: "TICK", Period: units.Time(words) * readerTick, Count: ticks}},
		SharedInit: map[uint32]cfsm.Value{0: 5},
	}
	return coest.New(spec)
}

// readerTick is the reader's tick period per word read.
const readerTick = 400 * units.Nanosecond

// readerTime is a simulated-time limit past the last of ticks ticks of a
// reader of words words.
func readerTime(ticks, words int) coest.Option {
	return coest.WithMaxSimTime(time.Duration(int64(ticks+1) * int64(words) * int64(readerTick)))
}

// TestSweepCompilesOncePerDesign: a grid that mixes two networks, two
// partition mappings and two HW widths compiles each of its four designs
// once, on four workers, and every point matches its own Estimate.
func TestSweepCompilesOncePerDesign(t *testing.T) {
	tcpip := coest.TCPIPGrid(quickTCPIP(), []int{0, 5}, []int{2})
	fast, _ := tcpip.Build(0) // checksum in HW, 18-bit datapath
	slow, _ := tcpip.Build(1)
	narrow := *fast.Spec() // the same network at the 16-bit default width
	pc := coest.ProdCons(coest.DefaultProdConsParams())
	allHW := *pc.Spec() // the same network with the producer in HW too
	allHW.Procs = map[string]coest.ProcessConfig{
		"producer": {Mapping: coest.HW, Priority: 1},
		"timer":    {Mapping: coest.HW, Priority: 2},
		"consumer": {Mapping: coest.HW, Priority: 3},
	}
	points := []*coest.System{fast, slow, coest.New(&narrow), pc, pc, coest.New(&allHW), fast}
	grid := coest.Grid{N: len(points), Build: func(i int) (*coest.System, error) { return points[i], nil }}
	// Designs: tcpip/18 (checksum), tcpip/16 (checksum), prodcons with the
	// producer in SW (timer, consumer) and all in HW (three modules).
	const wantGate, wantSW = 1 + 1 + 2 + 3, 1 + 1 + 1
	gate := telemetry.Default.Counter("coest_gate_compiles_total", "")
	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	opts := []coest.Option{coest.WithMaxSimTime(2 * time.Millisecond)}
	g0, s0 := gate.Value(), sw.Value()
	results, err := coest.Sweep(context.Background(), grid, append(opts, coest.WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	if g, s := gate.Value()-g0, sw.Value()-s0; g != wantGate || s != wantSW {
		t.Fatalf("compiled %d gate netlists and %d software images, want %d and %d", g, s, wantGate, wantSW)
	}
	sameReports(t, grid, results, opts...)
}

// TestSessionAndEstimateDoNotReplay: Estimate and Session.Estimate
// simulate every hardware execution, however often it repeats — also on a
// session whose batches have recorded it; a Sweep of the same points and
// the session's batches replay.
func TestSessionAndEstimateDoNotReplay(t *testing.T) {
	ctx := context.Background()
	sys := coest.TCPIP(quickTCPIP())
	sess, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	points := [][]coest.Option{{coest.WithDMASize(2)}, {coest.WithDMASize(2)}, {coest.WithDMASize(16)}}
	r0 := replays.Value()
	res, err := sess.EstimateBatch(ctx, points, coest.WithWorkers(1))
	if err != nil || coest.Errors(res) != nil {
		t.Fatal(err, coest.Errors(res))
	}
	if replays.Value() == r0 {
		t.Fatal("a batch of one point twice replayed nothing")
	}
	r0, f0 := replays.Value(), fallbacks.Value()
	for k := 0; k < 2; k++ {
		if _, err := coest.Estimate(ctx, sys); err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if _, err := sess.Estimate(ctx, p...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r, f := replays.Value()-r0, fallbacks.Value()-f0; r != 0 || f != 0 {
		t.Fatalf("Estimate and Session.Estimate replayed %d executions (%d fallbacks), want none", r, f)
	}
	grid := coest.Grid{N: 3, Build: func(int) (*coest.System, error) { return sys, nil }}
	if _, err := coest.Sweep(ctx, grid, coest.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if replays.Value() == r0 {
		t.Fatal("a sweep of one point three times replayed nothing")
	}
}

// TestSweepFillingReplayCapStaysExact: a design whose executions record
// more than the replay table holds stops recording at the cap and goes on
// simulating, exactly. Each of the 90 executions records a course of about
// 114 kB (50 compact states of 258 words, for 16,416 flops and the inputs,
// and a packed final state of 1,039 words), so the 8 MiB table stops after
// about 73. The second point replays the
// executions the first recorded and simulates the rest; both equal a cold
// Estimate.
func TestSweepFillingReplayCapStaysExact(t *testing.T) {
	const ticks, words = 90, 48
	sys := readerSystem(ticks, words, 1024)
	grid := coest.Grid{N: 2, Build: func(int) (*coest.System, error) { return sys, nil }}
	opts := []coest.Option{readerTime(ticks, words)}
	r0, f0 := replays.Value(), fallbacks.Value()
	results, err := coest.Sweep(context.Background(), grid, append(opts, coest.WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	r, f := replays.Value()-r0, fallbacks.Value()-f0
	if got := results[0].Report.GateExecs; got != ticks {
		t.Fatalf("%d executions per point, want %d", got, ticks)
	}
	if r == 0 || r >= ticks || f != 0 {
		t.Fatalf("%d replays, %d fallbacks: want the cap to stop recording short of all %d executions, and no fallback", r, f, ticks)
	}
	// Both points are one: one cold Estimate is the answer of each.
	sameReports(t, coest.Grid{N: 1, Build: grid.Build}, results[:1], opts...)
	identical(t, "point 1", results[1].Report, results[0].Report)
}
