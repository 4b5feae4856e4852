package coest_test

import (
	"context"
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
		a, b := *want, *r.Report
		a.Wall, b.Wall = 0, 0
		if r.Index != i || !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d: sweep report differs from Estimate:\n%v\nvs\n%v", i, b.String(), a.String())
		}
	}
}

// readerSystem is one hardware process that, on each of ticks ticks,
// counts the tick and sums words words of shared memory: every execution
// starts from a state of its own (the count), and each records a long
// course of large states.
func readerSystem(ticks, words int) *coest.System {
	b := cfsm.NewBuilder("reader")
	s := b.State("s")
	in := b.Input("TICK")
	cnt, i, w, acc := b.Var("CNT", 0), b.Var("I", 0), b.Var("W", 0), b.Var("ACC", 0)
	// Wide logic that no execution moves: it costs no gate evaluation, only
	// recorded state.
	idle, never := b.Var("IDLE", 0), b.Input("NEVER")
	terms := make([]*cfsm.Expr, 512)
	for k := range terms {
		terms[k] = cfsm.And(b.V(idle), cfsm.Const(cfsm.Value(k*2654435761)))
	}
	for len(terms) > 1 {
		for k := range terms[:len(terms)/2] {
			terms[k] = cfsm.Or(terms[2*k], terms[2*k+1])
		}
		terms = terms[:len(terms)/2]
	}
	b.On(s, never).Do(cfsm.Set(idle, terms[0]))
	b.On(s, in).Do(
		cfsm.Set(cnt, cfsm.Add(b.V(cnt), cfsm.Const(1))),
		cfsm.Set(i, cfsm.Const(0)),
		cfsm.Repeat(cfsm.Const(cfsm.Value(words)),
			cfsm.MemRead(w, b.V(i)),
			cfsm.Set(acc, cfsm.Add(b.V(acc), b.V(w))),
			cfsm.Set(i, cfsm.Add(b.V(i), cfsm.Const(1))),
		),
	)
	net := cfsm.NewNet()
	net.Add(b.MustBuild())
	net.EnvInputByName("TICK", "reader", "TICK")
	spec := &coest.Spec{
		Name:       "reader",
		Net:        net,
		Procs:      map[string]coest.ProcessConfig{"reader": {Mapping: coest.HW}},
		Periodic:   []coest.PeriodicStimulus{{Input: "TICK", Period: 20 * units.Microsecond, Count: ticks}},
		SharedInit: map[uint32]cfsm.Value{},
	}
	for a := 0; a < words; a++ {
		spec.SharedInit[uint32(a)] = cfsm.Value(a*97 + 5)
	}
	return coest.New(spec)
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

// TestSessionAndEstimateDoNotReplay: Estimate, Session.Estimate and
// Session.EstimateBatch simulate every hardware execution, however often
// it repeats; a Sweep of the same points replays.
func TestSessionAndEstimateDoNotReplay(t *testing.T) {
	ctx := context.Background()
	sys := coest.TCPIP(quickTCPIP())
	r0, f0 := replays.Value(), fallbacks.Value()
	for k := 0; k < 2; k++ {
		if _, err := coest.Estimate(ctx, sys); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := sess.Estimate(ctx); err != nil {
			t.Fatal(err)
		}
		points := [][]coest.Option{{coest.WithDMASize(2)}, {coest.WithDMASize(2)}, {coest.WithDMASize(16)}}
		res, err := sess.EstimateBatch(ctx, points, coest.WithWorkers(2))
		if err != nil || coest.Errors(res) != nil {
			t.Fatal(err, coest.Errors(res))
		}
	}
	if r, f := replays.Value()-r0, fallbacks.Value()-f0; r != 0 || f != 0 {
		t.Fatalf("Estimate and sessions replayed %d executions (%d fallbacks), want none", r, f)
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
// simulating, exactly. The second point replays the executions the first
// recorded and simulates the rest; both equal a cold Estimate.
func TestSweepFillingReplayCapStaysExact(t *testing.T) {
	const ticks = 90
	sys := readerSystem(ticks, 48)
	grid := coest.Grid{N: 2, Build: func(int) (*coest.System, error) { return sys, nil }}
	opts := []coest.Option{coest.WithMaxSimTime(3 * time.Millisecond)}
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
	sameReports(t, grid, results, opts...)
}
