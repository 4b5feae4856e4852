package gate_test

import (
	"testing"

	"repro/internal/cfsm"
	"repro/internal/gate"
	"repro/internal/hwsyn"
)

// TestCycleZeroAlloc is the PR 3 alloc-guard for the gate simulator: on a
// warmed-up netlist, Cycle must run the launch/settle/capture path without
// allocating, whatever the input activity.
func TestCycleZeroAlloc(t *testing.T) {
	n := gate.NewNetlist("alloc")
	a := n.Input("a")
	b := n.Input("b")
	x := n.Xor2(a, b)
	y := n.And2(a, b)
	q := n.Flop(n.Or2(x, y), false, "q")
	n.Inv(q)
	s, err := gate.NewSim(n, 3.3)
	if err != nil {
		t.Fatal(err)
	}

	in := gate.InputVector{false, false}
	s.Cycle(in) // warm up
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		in[0] = i&1 == 1
		in[1] = i&2 == 2
		i++
		s.Cycle(in)
	})
	if avg != 0 {
		t.Fatalf("gate.Sim.Cycle allocates %v allocs/op, want 0", avg)
	}
}

// TestResetZeroAlloc pins Sim.Reset, with which every run of a shared
// Program starts, at zero allocations: it copies the Program's power-on
// state into the run's own buffers instead of rebuilding or re-settling.
func TestResetZeroAlloc(t *testing.T) {
	n := gate.NewNetlist("reset-alloc")
	a := n.Input("a")
	q := n.Flop(n.Xor2(a, n.Const(true)), true, "q")
	n.And2(q, a)
	s, err := gate.NewSim(n, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(true)
	in := gate.InputVector{true}
	s.Cycle(in) // grow the history once
	if avg := testing.AllocsPerRun(1000, func() {
		s.Cycle(in)
		s.Reset()
	}); avg != 0 {
		t.Fatalf("gate.Sim.Reset allocates %v allocs/op, want 0", avg)
	}
	if s.Cycles() != 0 || s.Energy() != 0 || s.Evals() != 0 || len(s.History()) != 0 {
		t.Fatal("Reset must clear the run's counts and history")
	}
}

// zeroMem is a shared memory that reads zero and drops writes.
type zeroMem struct{}

func (zeroMem) MemRead(uint32) cfsm.Value   { return 0 }
func (zeroMem) MemWrite(uint32, cfsm.Value) {}

// TestSteadyZeroAlloc pins the fixed-point fast-forward at zero
// allocations: Steady and Advance with recording off, and Exec.Stall on an
// engine parked on the memory port, where every stall cycle is steady.
func TestSteadyZeroAlloc(t *testing.T) {
	n := gate.NewNetlist("steady-alloc")
	a := n.Input("a")
	n.Inv(n.Flop(a, false, "q"))
	s, err := gate.NewSim(n, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	in := gate.InputVector{true}
	s.Cycle(in)
	s.Cycle(in)
	if !s.Steady(in) {
		t.Fatal("a held input must reach a fixed point")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if s.Steady(in) {
			s.Advance(1000)
		}
	}); avg != 0 {
		t.Fatalf("gate.Sim.Steady+Advance allocate %v allocs/op, want 0", avg)
	}

	b := cfsm.NewBuilder("stall")
	st := b.State("s")
	goIn := b.Input("GO")
	v := b.Var("V", 0)
	b.On(st, goIn).Do(cfsm.MemRead(v, cfsm.Const(0)))
	m := b.MustBuild()
	mod, err := hwsyn.Synthesize(m, hwsyn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := hwsyn.NewDriver(mod, mod.SwitchEnergies(3.3))
	m.Post(0, 0)
	r, _ := m.React(zeroMem{})
	e, err := d.Begin(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, needMem, err := e.Run(); err != nil || !needMem {
		t.Fatalf("engine must park on its memory read (needMem %v, err %v)", needMem, err)
	}
	e.Stall(10) // settle into the wait
	evals := d.Sim.Evals()
	if avg := testing.AllocsPerRun(1000, func() { e.Stall(1000) }); avg != 0 {
		t.Fatalf("hwsyn.Exec.Stall allocates %v allocs/op, want 0", avg)
	}
	if d.Sim.Evals() != evals {
		t.Fatal("stalls on a parked engine must be steady (no gate evaluations)")
	}
}
