package gate

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sim(t *testing.T, n *Netlist) *Sim {
	t.Helper()
	s, err := NewSim(n, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrimitiveGates(t *testing.T) {
	n := NewNetlist("prim")
	a := n.Input("a")
	b := n.Input("b")
	and := n.And2(a, b)
	or := n.Or2(a, b)
	xor := n.Xor2(a, b)
	nand := n.Nand2(a, b)
	nor := n.Nor2(a, b)
	inv := n.Inv(a)
	xnor := n.NewGate(Xnor, a, b)
	buf := n.NewGate(Buf, a)
	s := sim(t, n)
	for _, c := range []struct{ a, b bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		s.Cycle(InputVector{c.a, c.b})
		if s.Value(and) != (c.a && c.b) {
			t.Errorf("and(%v,%v) = %v", c.a, c.b, s.Value(and))
		}
		if s.Value(or) != (c.a || c.b) {
			t.Errorf("or(%v,%v) = %v", c.a, c.b, s.Value(or))
		}
		if s.Value(xor) != (c.a != c.b) {
			t.Errorf("xor(%v,%v) = %v", c.a, c.b, s.Value(xor))
		}
		if s.Value(nand) != !(c.a && c.b) {
			t.Errorf("nand(%v,%v) = %v", c.a, c.b, s.Value(nand))
		}
		if s.Value(nor) != !(c.a || c.b) {
			t.Errorf("nor(%v,%v) = %v", c.a, c.b, s.Value(nor))
		}
		if s.Value(inv) != !c.a {
			t.Errorf("not(%v) = %v", c.a, s.Value(inv))
		}
		if s.Value(xnor) != (c.a == c.b) {
			t.Errorf("xnor(%v,%v) = %v", c.a, c.b, s.Value(xnor))
		}
		if s.Value(buf) != c.a {
			t.Errorf("buf(%v) = %v", c.a, s.Value(buf))
		}
	}
}

func TestMux(t *testing.T) {
	n := NewNetlist("mux")
	sel := n.Input("sel")
	a := n.Input("a")
	b := n.Input("b")
	m := n.Mux(sel, a, b)
	s := sim(t, n)
	s.Cycle(InputVector{true, true, false})
	if !s.Value(m) {
		t.Error("mux(1, 1, 0) != 1")
	}
	s.Cycle(InputVector{false, true, false})
	if s.Value(m) {
		t.Error("mux(0, 1, 0) != 0")
	}
}

func TestConstNets(t *testing.T) {
	n := NewNetlist("const")
	z := n.Const(false)
	o := n.Const(true)
	// Consts are cached.
	if n.Const(false) != z || n.Const(true) != o {
		t.Error("constant nets not cached")
	}
	s := sim(t, n)
	s.Cycle(InputVector{})
	if s.Value(z) || !s.Value(o) {
		t.Errorf("const0=%v const1=%v", s.Value(z), s.Value(o))
	}
}

// Property: the ripple adder matches integer addition for all widths.
func TestPropertyAdder(t *testing.T) {
	n := NewNetlist("adder")
	a := n.InputWord("a", 16)
	b := n.InputWord("b", 16)
	sum, cout := n.AddWord(a, b)
	s := sim(t, n)
	f := func(x, y uint16) bool {
		in := make(InputVector, len(n.Inputs))
		s.SetWord(in, a, uint64(x))
		s.SetWord(in, b, uint64(y))
		s.Cycle(in)
		want := uint64(x) + uint64(y)
		return s.WordValue(sum) == want&0xFFFF && s.Value(cout) == (want>>16 == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the subtractor matches integer subtraction, and the no-borrow
// flag is the unsigned a >= b comparison.
func TestPropertySubtractor(t *testing.T) {
	n := NewNetlist("sub")
	a := n.InputWord("a", 12)
	b := n.InputWord("b", 12)
	diff, geq := n.SubWord(a, b)
	s := sim(t, n)
	f := func(x, y uint16) bool {
		xv, yv := uint64(x&0xFFF), uint64(y&0xFFF)
		in := make(InputVector, len(n.Inputs))
		s.SetWord(in, a, xv)
		s.SetWord(in, b, yv)
		s.Cycle(in)
		return s.WordValue(diff) == (xv-yv)&0xFFF && s.Value(geq) == (xv >= yv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIncEqIsZero(t *testing.T) {
	n := NewNetlist("misc")
	a := n.InputWord("a", 8)
	b := n.InputWord("b", 8)
	inc := n.IncWord(a)
	eq := n.EqWord(a, b)
	zero := n.IsZero(a)
	s := sim(t, n)
	cases := []struct{ x, y uint64 }{{0, 0}, {5, 5}, {5, 6}, {255, 0}, {127, 128}}
	for _, c := range cases {
		in := make(InputVector, len(n.Inputs))
		s.SetWord(in, a, c.x)
		s.SetWord(in, b, c.y)
		s.Cycle(in)
		if got := s.WordValue(inc); got != (c.x+1)&0xFF {
			t.Errorf("inc(%d) = %d", c.x, got)
		}
		if s.Value(eq) != (c.x == c.y) {
			t.Errorf("eq(%d,%d) = %v", c.x, c.y, s.Value(eq))
		}
		if s.Value(zero) != (c.x == 0) {
			t.Errorf("iszero(%d) = %v", c.x, s.Value(zero))
		}
	}
}

func TestBitwiseWords(t *testing.T) {
	n := NewNetlist("bw")
	a := n.InputWord("a", 8)
	b := n.InputWord("b", 8)
	xw := n.XorWord(a, b)
	aw := n.AndWord(a, b)
	mw := n.MuxWord(n.Input("sel"), a, b)
	s := sim(t, n)
	in := make(InputVector, len(n.Inputs))
	s.SetWord(in, a, 0b1100_1010)
	s.SetWord(in, b, 0b1010_0110)
	in[len(in)-1] = true // sel
	s.Cycle(in)
	if got := s.WordValue(xw); got != 0b0110_1100 {
		t.Errorf("xor = %#b", got)
	}
	if got := s.WordValue(aw); got != 0b1000_0010 {
		t.Errorf("and = %#b", got)
	}
	if got := s.WordValue(mw); got != 0b1100_1010 {
		t.Errorf("mux sel=1 = %#b", got)
	}
}

func TestCounterCircuit(t *testing.T) {
	// 4-bit counter with enable: classic sequential sanity check.
	n := NewNetlist("cnt")
	en := n.Input("en")
	// Register with feedback through an incrementer.
	d := make(Word, 4)
	for i := range d {
		d[i] = n.Net("d")
	}
	q := n.RegWord(d, en, 0, "q")
	inc := n.IncWord(q)
	for i := range d {
		n.GateInto(Buf, d[i], inc[i])
	}
	s := sim(t, n)
	for i := 0; i < 5; i++ {
		s.Cycle(InputVector{true})
	}
	// Synchronous semantics: the enable seen in cycle i is visible on Q in
	// cycle i+1, so after five enabled cycles Q shows 4 with 5 in flight.
	if got := s.WordValue(q); got != 4 {
		t.Fatalf("counter after 5 enabled cycles = %d, want 4", got)
	}
	for i := 0; i < 3; i++ {
		s.Cycle(InputVector{false})
	}
	if got := s.WordValue(q); got != 5 {
		t.Fatalf("counter after disable = %d, want 5 (the in-flight edge)", got)
	}
}

func TestRegWordInit(t *testing.T) {
	n := NewNetlist("init")
	en := n.Input("en")
	d := n.InputWord("d", 8)
	q := n.RegWord(d, en, 0xA5, "q")
	s := sim(t, n)
	if got := s.WordValue(q); got != 0xA5 {
		t.Fatalf("initial register value = %#x, want 0xA5", got)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := NewNetlist("loop")
	a := n.Net("a")
	b := n.NewGate(Not, a)
	n.GateInto(Buf, a, b)
	if _, err := NewSim(n, 3.3); err == nil {
		t.Fatal("combinational cycle must be rejected")
	}
}

func TestUndrivenNetDetected(t *testing.T) {
	n := NewNetlist("undriven")
	a := n.Net("floating")
	n.NewGate(Not, a)
	if _, err := NewSim(n, 3.3); err == nil {
		t.Fatal("undriven net must be rejected")
	}
}

func TestDoubleDrivePanics(t *testing.T) {
	n := NewNetlist("dd")
	a := n.Input("a")
	o := n.NewGate(Buf, a)
	defer func() {
		if recover() == nil {
			t.Fatal("double drive must panic")
		}
	}()
	n.GateInto(Buf, o, a)
}

func TestEnergyOnlyOnToggles(t *testing.T) {
	n := NewNetlist("energy")
	a := n.Input("a")
	ch := n.Inv(a)
	_ = ch
	s := sim(t, n)
	// Settle with constant inputs: after the first cycle nothing toggles
	// except the (zero-flop) clock term, which is 0 here.
	s.Cycle(InputVector{false})
	e2 := s.Cycle(InputVector{false})
	if e2 != 0 {
		t.Fatalf("static circuit dissipated %v in a quiet cycle", e2)
	}
	e3 := s.Cycle(InputVector{true})
	if e3 <= 0 {
		t.Fatal("toggling input dissipated nothing")
	}
}

func TestEnergyScalesWithActivity(t *testing.T) {
	n := NewNetlist("act")
	a := n.InputWord("a", 8)
	b := n.InputWord("b", 8)
	n.AddWord(a, b)
	s := sim(t, n)
	rng := rand.New(rand.NewSource(1))

	// Quiet workload: constant inputs.
	s.Reset()
	in := make(InputVector, len(n.Inputs))
	for i := 0; i < 100; i++ {
		s.Cycle(in)
	}
	quiet := s.Energy()

	// Noisy workload: random inputs every cycle.
	s.Reset()
	for i := 0; i < 100; i++ {
		s.SetWord(in, a, uint64(rng.Intn(256)))
		s.SetWord(in, b, uint64(rng.Intn(256)))
		s.Cycle(in)
	}
	noisy := s.Energy()
	if noisy <= quiet*2 {
		t.Fatalf("activity scaling broken: quiet=%v noisy=%v", quiet, noisy)
	}
}

func TestPerCycleHistory(t *testing.T) {
	n := NewNetlist("hist")
	a := n.Input("a")
	n.Inv(a)
	s := sim(t, n)
	s.Record(true)
	s.Cycle(InputVector{true})
	s.Cycle(InputVector{false})
	s.Cycle(InputVector{false})
	h := s.History()
	if len(h) != 3 {
		t.Fatalf("history length %d, want 3", len(h))
	}
	var sum float64
	for _, e := range h {
		sum += float64(e)
	}
	if sum != float64(s.Energy()) {
		t.Fatal("history does not sum to total energy")
	}
}

func TestResetClearsState(t *testing.T) {
	n := NewNetlist("reset")
	a := n.Input("a")
	q := n.Flop(a, false, "q")
	s := sim(t, n)
	s.Cycle(InputVector{true})
	s.Cycle(InputVector{true})
	if !s.Value(q) {
		t.Fatal("flop did not capture")
	}
	s.Reset()
	if s.Value(q) {
		t.Fatal("Reset did not restore flop init")
	}
	if s.Energy() != 0 || s.Cycles() != 0 || s.Evals() != 0 || len(s.History()) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if !slices.Equal(s.AppendState(nil), sim(t, n).AppendState(nil)) {
		t.Fatal("Reset did not restore the power-on net values and flop state")
	}
}

func TestFlopInitValue(t *testing.T) {
	n := NewNetlist("ffinit")
	a := n.Input("a")
	q := n.Flop(a, true, "q")
	s := sim(t, n)
	if !s.Value(q) {
		t.Fatal("flop init=true not honored")
	}
}

func TestSizeStats(t *testing.T) {
	n := NewNetlist("size")
	a := n.Input("a")
	b := n.Input("b")
	n.And2(a, b)
	n.Flop(a, false, "q")
	st := n.Size()
	if st.Gates != 1 || st.DFFs != 1 || st.Nets < 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWrongInputVectorPanics(t *testing.T) {
	n := NewNetlist("w")
	n.Input("a")
	s := sim(t, n)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width must panic")
		}
	}()
	s.Cycle(InputVector{true, false})
}

// Property: simulation is deterministic — same input sequence, same energy.
func TestPropertyDeterministicEnergy(t *testing.T) {
	build := func() (*Netlist, Word, Word) {
		n := NewNetlist("det")
		a := n.InputWord("a", 8)
		b := n.InputWord("b", 8)
		sum, _ := n.AddWord(a, b)
		reg := n.RegWord(sum, n.Const(true), 0, "r")
		n.EqWord(reg, b)
		return n, a, b
	}
	f := func(seed int64) bool {
		runOnce := func() float64 {
			n, a, b := build()
			s, err := NewSim(n, 3.3)
			if err != nil {
				return -1
			}
			rng := rand.New(rand.NewSource(seed))
			in := make(InputVector, len(n.Inputs))
			for i := 0; i < 50; i++ {
				s.SetWord(in, a, uint64(rng.Intn(256)))
				s.SetWord(in, b, uint64(rng.Intn(256)))
				s.Cycle(in)
			}
			return float64(s.Energy())
		}
		return runOnce() == runOnce()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
