package gate_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfsmtest"
	"repro/internal/gate"
	"repro/internal/hwsyn"
)

// synthesizedState returns the netlist state of a synthesized hardware
// module. The machine and datapath are small (about 400 nets, 8 kB encoded)
// so that the fuzzer mutates and minimizes it quickly.
func synthesizedState(tb testing.TB) gate.NetlistState {
	tb.Helper()
	p := cfsmtest.Params{Vars: 1, Stmts: 2, Depth: 1, HWSafe: true, Mem: true}
	m := cfsmtest.Machine("compile", p, rand.New(rand.NewSource(1)))
	mod, err := hwsyn.Synthesize(m, hwsyn.Config{Width: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return mod.N.State()
}

func encodeState(tb testing.TB, st gate.NetlistState) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// cloneState deep-copies a state through its wire encoding.
func cloneState(tb testing.TB, st gate.NetlistState) gate.NetlistState {
	tb.Helper()
	var out gate.NetlistState
	if err := gob.NewDecoder(bytes.NewReader(encodeState(tb, st))).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// firstGate returns the index of the first gate with n inputs.
func firstGate(st *gate.NetlistState, n int) int {
	for gi, g := range st.Gates {
		if len(g.Ins) == n {
			return gi
		}
	}
	panic("no such gate")
}

// corruptions are the ways a netlist can be damaged, each with the error
// Compile must answer it with.
var corruptions = []struct {
	name    string
	corrupt func(st *gate.NetlistState)
	want    string
}{
	{"gate input past the last net", func(st *gate.NetlistState) {
		st.Gates[firstGate(st, 2)].Ins[1] = 9999
	}, "out of range"},
	{"negative gate input", func(st *gate.NetlistState) {
		st.Gates[firstGate(st, 1)].Ins[0] = -1
	}, "out of range"},
	{"gate output past the last net", func(st *gate.NetlistState) {
		st.Gates[0].Out = gate.NetID(len(st.NetNames))
	}, "out of range"},
	{"flop D out of range", func(st *gate.NetlistState) { st.DFFs[0].D = 1 << 30 }, "out of range"},
	{"flop Q out of range", func(st *gate.NetlistState) { st.DFFs[0].Q = -7 }, "out of range"},
	{"primary input out of range", func(st *gate.NetlistState) { st.Inputs[0] = 9999 }, "out of range"},
	{"primary output out of range", func(st *gate.NetlistState) { st.Outputs[0] = 9999 }, "out of range"},
	{"unknown gate kind", func(st *gate.NetlistState) { st.Gates[0].Kind = gate.NumKinds }, "unknown kind"},
	{"Not gate without an input", func(st *gate.NetlistState) {
		st.Gates[firstGate(st, 1)].Ins = nil
	}, "want 1"},
	{"Buf gate with two inputs", func(st *gate.NetlistState) {
		st.Gates[firstGate(st, 2)].Kind = gate.Buf
	}, "want 1"},
	{"net driven by two gates", func(st *gate.NetlistState) {
		st.Gates[1].Out = st.Gates[0].Out
	}, "multiply driven"},
	{"flop output driven by a gate", func(st *gate.NetlistState) {
		st.Gates[0].Out = st.DFFs[0].Q
	}, "multiply driven"},
	{"primary input listed twice", func(st *gate.NetlistState) {
		st.Inputs = append(st.Inputs, st.Inputs[0])
	}, "multiply driven"},
	{"gate reads an undriven net", func(st *gate.NetlistState) {
		st.NetNames = append(st.NetNames, "floating")
		st.Gates[firstGate(st, 2)].Ins[0] = gate.NetID(len(st.NetNames) - 1)
	}, "never driven"},
	{"gate reads its own output", func(st *gate.NetlistState) {
		g := &st.Gates[firstGate(st, 2)]
		g.Ins[0] = g.Out
	}, "combinational cycle"},
}

// TestCompileRejectsCorruptNetlists: every way a netlist can be damaged is
// answered by Compile with an error naming the damage — never a panic at
// compile time or, worse, at the first simulated cycle.
func TestCompileRejectsCorruptNetlists(t *testing.T) {
	base := synthesizedState(t)
	if _, err := gate.Compile(gate.NetlistFromState(cloneState(t, base))); err != nil {
		t.Fatalf("the uncorrupted netlist must compile: %v", err)
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			st := cloneState(t, base)
			c.corrupt(&st)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Compile panicked: %v", r)
				}
			}()
			_, err := gate.Compile(gate.NetlistFromState(st))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Compile error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzCompile feeds gob-encoded netlist states to Compile. Compile must
// reject what it cannot simulate with an error, never a panic, and a
// netlist it accepts must simulate. The seeds — a synthesized module's
// netlist and each corruption above — run under plain go test.
func FuzzCompile(f *testing.F) {
	base := synthesizedState(f)
	f.Add(encodeState(f, base))
	for _, c := range corruptions {
		st := cloneState(f, base)
		c.corrupt(&st)
		f.Add(encodeState(f, st))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st gate.NetlistState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return
		}
		p, err := gate.Compile(gate.NetlistFromState(st))
		if err != nil {
			return
		}
		s := p.NewSim(3.3)
		in := make(gate.InputVector, len(st.Inputs))
		for i := 0; i < 8; i++ {
			for j := range in {
				in[j] = (i*7+j)%3 == 0
			}
			s.Cycle(in)
		}
		for i := range st.DFFs {
			s.ForceFlop(i, i%2 == 0)
		}
		s.Cycle(in)
		s.Reset()
	})
}
