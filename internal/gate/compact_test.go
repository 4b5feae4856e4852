package gate

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomNetlist builds an acyclic netlist of random gates over random
// primary inputs and flops, whose D nets are fed from anywhere, plus a net
// nothing drives or reads. The input and flop counts cross word
// boundaries.
func randomNetlist(rng *rand.Rand) *Netlist {
	n := NewNetlist("random")
	var pool []NetID
	for i := rng.Intn(140) + 1; i > 0; i-- {
		pool = append(pool, n.Input("in"))
	}
	ds := make([]NetID, rng.Intn(150)+1)
	for i := range ds {
		ds[i] = n.Net("d")
		pool = append(pool, n.Flop(ds[i], rng.Intn(2) == 1, "q"))
	}
	n.Net("spare")
	for g := rng.Intn(400); g > 0; g-- {
		k := Kind(rng.Intn(int(NumKinds)))
		fanin := 1
		if k != Not && k != Buf {
			fanin = rng.Intn(5)
		}
		ins := make([]NetID, fanin)
		for i := range ins {
			ins[i] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.NewGate(k, ins...))
	}
	for _, d := range ds {
		n.GateInto(Buf, d, pool[rng.Intn(len(pool))])
	}
	return n
}

// TestCompactStateRebuildsWholeState: over random netlists and random
// input streams, a Sim that takes another's compact state (SetCompact)
// holds the same whole state (AppendState) — every net, flop and captured
// next state — and the two then dissipate the same energy, bit for bit,
// cycle after cycle. The compact state is taken after cycles, after a
// forced flop has been settled, and at power-on; the receiving Sim comes
// from any state, forced ones included.
func TestCompactStateRebuildsWholeState(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng)
		p, err := Compile(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		src, dst := p.NewSim(3.3), p.NewSim(3.3)
		in := make(InputVector, len(n.Inputs))
		random := func() {
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
		}
		for round := 0; round < 6; round++ {
			for k := rng.Intn(5); k > 0; k-- {
				random()
				src.Cycle(in)
				random()
				dst.Cycle(in)
			}
			if rng.Intn(3) == 0 {
				src.ForceFlop(rng.Intn(len(n.DFFs)), rng.Intn(2) == 1)
				random()
				src.Cycle(in)
			}
			if rng.Intn(3) == 0 {
				dst.ForceFlop(rng.Intn(len(n.DFFs)), rng.Intn(2) == 1)
			}
			c := src.AppendCompact(nil)
			if len(c) != src.CompactWords() {
				t.Fatalf("seed %d: compact state of %d words, CompactWords %d", seed, len(c), src.CompactWords())
			}
			evals := dst.Evals()
			dst.SetCompact(c)
			if !slices.Equal(dst.AppendState(nil), src.AppendState(nil)) {
				t.Fatalf("seed %d round %d: SetCompact(AppendCompact()) differs from the whole state", seed, round)
			}
			if dst.Forced() || dst.Evals() != evals {
				t.Fatalf("seed %d round %d: SetCompact left forced %v, counted %d evaluations",
					seed, round, dst.Forced(), dst.Evals()-evals)
			}
			for k := 0; k < 4; k++ {
				random()
				if src.Steady(in) != dst.Steady(in) {
					t.Fatalf("seed %d round %d cycle %d: Steady differs", seed, round, k)
				}
				a, b := src.Cycle(in), dst.Cycle(in)
				if math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					t.Fatalf("seed %d round %d cycle %d: energy %v, want %v", seed, round, k, b, a)
				}
				if !slices.Equal(dst.AppendState(nil), src.AppendState(nil)) {
					t.Fatalf("seed %d round %d cycle %d: states part", seed, round, k)
				}
			}
			if round == 3 {
				src.Reset()
			}
		}
	}
}

// TestSimsShareSwitchEnergies: Sims made from one switch-energy table share
// it, a table of another voltage gives other energies, and a Sim from a
// shared table runs bit for bit as one with a table of its own.
func TestSimsShareSwitchEnergies(t *testing.T) {
	n, _ := steadyNetlist()
	p, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	tab := p.SwitchEnergies(3.3)
	if tab.Program() != p || tab.Vdd() != 3.3 {
		t.Fatal("table does not name its program and voltage")
	}
	a, b, own := tab.NewSim(), tab.NewSim(), p.NewSim(3.3)
	if &a.swE[0] != &b.swE[0] || &a.swE[0] == &own.swE[0] {
		t.Fatal("Sims of one table must share it, and NewSim must build its own")
	}
	low := p.SwitchEnergies(1.8).NewSim()
	for _, in := range []InputVector{vec(true, true, 9), vec(true, false, 6), vec(false, true, 3)} {
		ea, eo, el := a.Cycle(in), own.Cycle(in), low.Cycle(in)
		if math.Float64bits(float64(ea)) != math.Float64bits(float64(eo)) {
			t.Fatalf("shared table: %v, own table: %v", ea, eo)
		}
		if el >= ea {
			t.Fatalf("1.8 V cycle dissipated %v, 3.3 V %v", el, ea)
		}
	}
}
