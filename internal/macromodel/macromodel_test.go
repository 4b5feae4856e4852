package macromodel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/iss"
	"repro/internal/paramfile"
	"repro/internal/swsyn"
	"repro/internal/units"
)

var table *Table

func getTable(t *testing.T) *Table {
	t.Helper()
	if table == nil {
		tb, err := Characterize(iss.SPARCliteTiming(), iss.SPARCliteModel())
		if err != nil {
			t.Fatal(err)
		}
		table = tb
	}
	return table
}

func TestCharacterizeAllOpsPositive(t *testing.T) {
	tb := getTable(t)
	for _, op := range cfsm.AllOps() {
		if tb.Energy[op] <= 0 {
			t.Errorf("%v characterized with non-positive energy %v", op, tb.Energy[op])
		}
		if tb.Cycles[op] <= 0 {
			t.Errorf("%v characterized with non-positive delay %g", op, tb.Cycles[op])
		}
	}
}

func TestRelativeCosts(t *testing.T) {
	tb := getTable(t)
	// The paper's Fig 3 parameter file has AEMIT ~6x AVV; ours should at
	// least make the event emission clearly the most expensive basic op.
	if tb.Energy[cfsm.AEMIT] < 2*tb.Energy[cfsm.AVV] {
		t.Errorf("AEMIT (%v) should clearly exceed AVV (%v)", tb.Energy[cfsm.AEMIT], tb.Energy[cfsm.AVV])
	}
	// Multiplication and division are multi-cycle.
	if tb.Cycles[cfsm.AMUL] <= tb.Cycles[cfsm.AADD] {
		t.Errorf("AMUL (%g cyc) should exceed AADD (%g cyc)", tb.Cycles[cfsm.AMUL], tb.Cycles[cfsm.AADD])
	}
	if tb.Cycles[cfsm.ADIV] <= tb.Cycles[cfsm.AMUL] {
		t.Errorf("ADIV (%g cyc) should exceed AMUL (%g cyc)", tb.Cycles[cfsm.ADIV], tb.Cycles[cfsm.AMUL])
	}
}

func TestCostSumsTrace(t *testing.T) {
	tb := getTable(t)
	ops := []cfsm.OpKind{cfsm.ADETECT, cfsm.AADD, cfsm.AVV, cfsm.ARET}
	cyc, e := tb.Cost(ops)
	var wantC float64
	var wantE units.Energy
	for _, op := range ops {
		wantC += tb.Cycles[op]
		wantE += tb.Energy[op]
	}
	if cyc != wantC || e != wantE {
		t.Fatal("Cost does not sum the table")
	}
}

func TestParamFileRoundTrip(t *testing.T) {
	tb := getTable(t)
	f := tb.ToParamFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := paramfile.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := FromParamFile(g, tb.Clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range cfsm.AllOps() {
		if tb2.Cycles[op] != tb.Cycles[op] {
			t.Fatalf("%v cycles: %g vs %g", op, tb2.Cycles[op], tb.Cycles[op])
		}
		de := float64(tb2.Energy[op] - tb.Energy[op])
		if de > 1e-15 || de < -1e-15 {
			t.Fatalf("%v energy: %v vs %v", op, tb2.Energy[op], tb.Energy[op])
		}
	}
}

// TestFig3ParamFileExcerpt checks the shape of the Fig 3 excerpt that
// paperrun's characterize kind writes: the units header, delay lines and
// energy lines.
func TestFig3ParamFileExcerpt(t *testing.T) {
	var buf bytes.Buffer
	if err := getTable(t).ToParamFile().Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{".unit_energy nJ", ".time AVV", ".energy AEMIT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("parameter file missing %q:\n%s", want, out)
		}
	}
}

func TestFromParamFileRejectsWrongUnits(t *testing.T) {
	f := paramfile.New()
	f.UnitEnergy = "J"
	if _, err := FromParamFile(f, 50e6); err == nil {
		t.Fatal("wrong units must be rejected")
	}
}

// The macro-model must over-estimate the ISS on compound expressions (the
// additive model charges operand fetches that real code keeps in
// registers) while staying within a sane bound — the paper's conservative
// 20-35% regime rather than 2x.
func TestMacromodelIsConservativeOnCompoundExpressions(t *testing.T) {
	tb := getTable(t)

	b := cfsm.NewBuilder("compound")
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 3)
	w := b.Var("W", 9)
	b.On(s, in).Do(
		cfsm.Set(v, cfsm.Add(cfsm.Mul(b.EvVal(in), cfsm.Const(3)),
			cfsm.Fn(cfsm.AMIN, b.V(w), cfsm.Sub(b.EvVal(in), cfsm.Const(2))))),
		cfsm.Set(w, cfsm.Xor(cfsm.Add(b.V(v), b.V(w)), cfsm.Const(0x55))),
	)
	m := b.MustBuild()

	comp, err := swsyn.Compile([]*cfsm.CFSM{m})
	if err != nil {
		t.Fatal(err)
	}
	mem := iss.NewMem()
	cpu := iss.New(iss.SPARCliteTiming(), iss.SPARCliteModel(), mem)
	cpu.Reset(swsyn.StackTop)
	cpu.LoadProgram(comp.Prog)
	comp.InitMemory(mem)
	mc := comp.Machines[0]

	var issE, macroE float64
	for i := 0; i < 20; i++ {
		m.Post(0, cfsm.Value(10+i))
		r, _ := m.React(cfsm.NullEnv{})
		mc.BindReaction(mem, r)
		_, st, err := cpu.Call(mc.Entries[r.TransIdx])
		if err != nil {
			t.Fatal(err)
		}
		issE += float64(st.Energy)
		_, me := tb.CostOfReaction(r)
		macroE += float64(me)
	}
	ratio := macroE / issE
	if ratio <= 1.0 {
		t.Fatalf("macro-model (%g) must over-estimate the ISS (%g), ratio %.3f", macroE, issE, ratio)
	}
	if ratio > 2.0 {
		t.Fatalf("macro-model overshoot too extreme: ratio %.3f", ratio)
	}
	t.Logf("macromodel/ISS energy ratio on compound expressions: %.3f", ratio)
}

func TestCostOfReactionRounding(t *testing.T) {
	tb := getTable(t)
	r := &cfsm.Reaction{Ops: []cfsm.OpKind{cfsm.AVV}}
	cyc, e := tb.CostOfReaction(r)
	if cyc == 0 || e == 0 {
		t.Fatal("single-op reaction must have nonzero cost")
	}
}
