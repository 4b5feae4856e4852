package gate

import (
	"math"
	"testing"

	"repro/internal/units"
)

// steadyNetlist has flops that reach a fixed point under a held input
// vector: a 4-bit enabled register, a two-flop shift chain, and logic
// (including an N-ary gate) reading both. It returns the netlist and the
// flop index of the chain's first stage.
func steadyNetlist() (*Netlist, int) {
	n := NewNetlist("steady")
	en := n.Input("en")
	a := n.Input("a")
	din := n.InputWord("din", 4)
	r := n.RegWord(din, en, 5, "r")
	p1 := n.Flop(a, false, "p1")
	p2 := n.Flop(p1, false, "p2")
	x := n.XorWord(r, din)
	y := n.NewGate(And, x[0], x[1], p2)
	n.Or2(n.Inv(y), p1)
	return n, len(n.DFFs) - 2
}

func vec(en, a bool, din uint64) InputVector {
	in := InputVector{en, a}
	for b := 0; b < 4; b++ {
		in = append(in, din>>b&1 == 1)
	}
	return in
}

// holdSteady clocks n cycles of in the way a stalled engine does: one Cycle
// at a time until the simulator is steady, then Advance for the rest.
func holdSteady(s *Sim, in InputVector, n uint64) {
	for ; n > 0; n-- {
		if s.Steady(in) {
			s.Advance(n)
			return
		}
		s.Cycle(in)
	}
}

// TestAdvanceMatchesCycles pins Advance to the Cycle loop it replaces: from
// a fixed point, and from the unsettled states ForceFlop leaves behind, a
// held input vector clocked through holdSteady and through one Cycle per
// cycle on an identical twin must agree bit for bit on energy, history,
// counts, metrics and net state, and keep agreeing afterwards.
func TestAdvanceMatchesCycles(t *testing.T) {
	// n is chosen so that n·e, the multiply shortcut, rounds differently
	// from n sequential additions (checked below).
	const n = 1000
	netlist, p1 := steadyNetlist()
	held := vec(false, true, 3)
	settle := func(s *Sim) {
		for _, in := range []InputVector{vec(true, true, 9), vec(true, false, 6), held, held, held} {
			s.Cycle(in)
		}
	}
	// quiet: no gate is pending and every next state equals its Q, so a
	// steadiness check that looked only at those would pass.
	cases := []struct {
		name          string
		prefix        func(s *Sim)
		steady, quiet bool
	}{
		{"fixed point", settle, true, true},
		{"ForceFlop flips Q", func(s *Sim) {
			settle(s)
			s.ForceFlop(0, !s.Value(s.N.DFFs[0].Q))
		}, false, false},
		{"new input vector", func(s *Sim) {
			settle(s)
			s.Cycle(vec(false, true, 5))
			s.Cycle(vec(false, true, 5))
		}, false, true},
		{"ForceFlop over a pending capture", func(s *Sim) {
			settle(s)
			s.Cycle(vec(false, false, 3))
			s.Cycle(vec(false, false, 3))
			s.Cycle(held) // p1 has captured a=1 but still shows 0
			s.ForceFlop(p1, false)
		}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref := sim(t, netlist), sim(t, netlist)
			fast.Record(true)
			ref.Record(true)
			tc.prefix(fast)
			tc.prefix(ref)
			if got := fast.Steady(held); got != tc.steady {
				t.Fatalf("Steady = %v, want %v", got, tc.steady)
			}
			if got := quiet(fast); got != tc.quiet {
				t.Fatalf("quiet = %v, want %v", got, tc.quiet)
			}
			if tc.steady {
				e0 := fast.Energy()
				ce := units.SwitchEnergy(DefaultClockCap, fast.Vdd, uint64(len(netlist.DFFs)))
				sum := e0
				for i := 0; i < n; i++ {
					sum += ce
				}
				if sum == e0+units.Energy(n)*ce {
					t.Fatalf("n=%d does not tell n·e from the repeated sum", n)
				}
			}

			c0, ev0 := mCycles.Value(), mEvals.Value()
			holdSteady(fast, held, n)
			fastCycles, fastEvals := mCycles.Value()-c0, mEvals.Value()-ev0
			c0, ev0 = mCycles.Value(), mEvals.Value()
			for i := 0; i < n; i++ {
				ref.Cycle(held)
			}
			refCycles, refEvals := mCycles.Value()-c0, mEvals.Value()-ev0

			sameSims(t, fast, ref)
			if fastCycles != refCycles || fastEvals != refEvals {
				t.Errorf("metric deltas: cycles %d/%d evals %d/%d, want equal",
					fastCycles, refCycles, fastEvals, refEvals)
			}
			if !fast.Steady(held) || !ref.Steady(held) {
				t.Error("a held vector must reach a fixed point")
			}

			// The state left behind must be the same too.
			for _, in := range []InputVector{vec(true, false, 12), vec(false, false, 1), held} {
				fast.Cycle(in)
				ref.Cycle(in)
			}
			sameSims(t, fast, ref)
		})
	}
}

// quiet reports whether no gate is pending re-evaluation and every flop's
// next state equals its Q. A ForceFlop of a flop to its current Q can leave
// both true while its D net still disagrees.
func quiet(s *Sim) bool {
	for _, w := range s.dirtyBits {
		if w != 0 {
			return false
		}
	}
	for wi, qw := range s.qVal {
		if qw != s.nextQ[wi] {
			return false
		}
	}
	return true
}

func sameSims(t *testing.T, got, want *Sim) {
	t.Helper()
	if math.Float64bits(float64(got.Energy())) != math.Float64bits(float64(want.Energy())) {
		t.Errorf("Energy = %v, want %v", got.Energy(), want.Energy())
	}
	gh, wh := got.History(), want.History()
	if len(gh) != len(wh) {
		t.Fatalf("history length %d, want %d", len(gh), len(wh))
	}
	for i := range gh {
		if math.Float64bits(float64(gh[i])) != math.Float64bits(float64(wh[i])) {
			t.Fatalf("history[%d] = %v, want %v", i, gh[i], wh[i])
		}
	}
	if got.Cycles() != want.Cycles() || got.Evals() != want.Evals() ||
		got.TotalToggles() != want.TotalToggles() {
		t.Errorf("cycles/evals/toggles = %d/%d/%d, want %d/%d/%d",
			got.Cycles(), got.Evals(), got.TotalToggles(),
			want.Cycles(), want.Evals(), want.TotalToggles())
	}
	for id := NetID(0); int(id) < got.N.NumNets(); id++ {
		if got.Value(id) != want.Value(id) {
			t.Errorf("net %s = %v, want %v", got.N.NetName(id), got.Value(id), want.Value(id))
		}
	}
}
