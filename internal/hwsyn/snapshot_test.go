package hwsyn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/gate"
)

// cloneModuleState deep-copies a module state through its wire encoding.
func cloneModuleState(t *testing.T, st ModuleState) ModuleState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	var out ModuleState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModuleFromStateRejectsCorruptState: a restored module whose ports do
// not fit its netlist or its machine, or whose netlist does not compile, is
// refused by ModuleFromState with an error — where a serving layer answers
// it with a 400 — instead of panicking inside the first run.
func TestModuleFromStateRejectsCorruptState(t *testing.T) {
	spec := counterMachine(3)
	mod, err := Synthesize(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := mod.State()

	// The intact state restores to a module that runs like the original.
	restored, err := ModuleFromState(cloneModuleState(t, base), spec.Clone())
	if err != nil {
		t.Fatalf("intact state: %v", err)
	}
	a, b := NewDriver(mod, 3.3), NewDriver(restored, 3.3)
	for i := 0; i < 4; i++ {
		ra, _ := replayOn(t, a, 1)
		rb, _ := replayOn(t, b, 1)
		if math.Float64bits(float64(ra.Energy)) != math.Float64bits(float64(rb.Energy)) || ra.Cycles != rb.Cycles {
			t.Fatalf("reaction %d: restored module %v/%d cycles, synthesized %v/%d",
				i, rb.Energy, rb.Cycles, ra.Energy, ra.Cycles)
		}
	}

	cases := []struct {
		name    string
		corrupt func(st *ModuleState)
		want    string
	}{
		{"go is an output", func(st *ModuleState) { st.Go = st.Done }, "not a primary input"},
		{"memory ack out of range", func(st *ModuleState) { st.MemAck = -1 }, "out of range"},
		{"input value bit out of range", func(st *ModuleState) { st.InVals[0][0] = 9999 }, "out of range"},
		{"transition select is a flop", func(st *ModuleState) {
			st.TransSel = append(st.TransSel, st.Upc[0])
		}, "not a primary input"},
		{"done out of range", func(st *ModuleState) { st.Done = 9999 }, "out of range"},
		{"output value bit out of range", func(st *ModuleState) { st.OutVals[0][0] = 9999 }, "out of range"},
		{"variable register bit is an input", func(st *ModuleState) { st.VarRegs[0][0] = st.Go }, "not a flop output"},
		{"missing input port", func(st *ModuleState) { st.InPresent = nil }, "port lists"},
		{"extra output port", func(st *ModuleState) {
			st.OutVals = append(st.OutVals, st.OutVals[0])
			st.OutPresent = append(st.OutPresent, st.OutPresent[0])
		}, "port lists"},
		{"entry table short", func(st *ModuleState) { st.Entries = nil }, "entry steps"},
		{"bad width", func(st *ModuleState) { st.Width = 0 }, "bad width"},
		{"netlist gate input out of range", func(st *ModuleState) { st.N.Gates[0].Ins = []gate.NetID{9999} }, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := cloneModuleState(t, base)
			c.corrupt(&st)
			_, err := ModuleFromState(st, spec.Clone())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ModuleFromState error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// replayOn posts v on input 0 of the driver's machine and executes the
// resulting transition with zero-wait memory.
func replayOn(t *testing.T, d *Driver, v cfsm.Value) (ExecStats, *cfsm.Reaction) {
	t.Helper()
	d.Mod.M.Post(0, v)
	r, ok := d.Mod.M.React(sharedMem{})
	if !ok {
		t.Fatal("machine did not react")
	}
	st, err := d.ExecTransition(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, r
}
