package hwsyn

import (
	"strings"
	"testing"

	"repro/internal/gate"
)

// TestModuleFromStateRejectsCorruptState: Module.compile, which every
// synthesized module passes through, refuses a module whose ports do not
// fit its netlist, or whose netlist does not compile, with an error instead
// of a panic inside the first run.
func TestModuleFromStateRejectsCorruptState(t *testing.T) {
	synth := func(t *testing.T) *Module {
		t.Helper()
		mod, err := Synthesize(counterMachine(3), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	if err := synth(t).compile(); err != nil {
		t.Fatalf("intact module: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(m *Module)
		want    string
	}{
		{"go is an output", func(m *Module) { m.Go = m.Done }, "not a primary input"},
		{"memory ack out of range", func(m *Module) { m.MemAck = -1 }, "out of range"},
		{"input value bit out of range", func(m *Module) { m.InVals[0][0] = 9999 }, "out of range"},
		{"transition select is a flop", func(m *Module) {
			m.TransSel = append(m.TransSel, m.Upc[0])
		}, "not a primary input"},
		{"done out of range", func(m *Module) { m.Done = 9999 }, "out of range"},
		{"output value bit out of range", func(m *Module) { m.OutVals[0][0] = 9999 }, "out of range"},
		{"variable register bit is an input", func(m *Module) { m.VarRegs[0][0] = m.Go }, "not a flop output"},
		{"netlist gate input out of range", func(m *Module) { m.N.Gates[0].Ins = []gate.NetID{9999} }, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod := synth(t)
			c.corrupt(mod)
			if err := mod.compile(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("compile error %v, want one containing %q", err, c.want)
			}
		})
	}
}
