package hwsyn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/cfsmtest"
	"repro/internal/gate"
)

// cycleEngine is the reference for Exec.Stall's steady advance: a Driver
// whose stalls clock one gate.Sim.Cycle per stall cycle.
type cycleEngine struct{ DriverEngine }

func (c cycleEngine) Begin(r *cfsm.Reaction) (Execution, error) {
	e, err := c.Driver.Begin(r)
	if err != nil {
		return nil, err
	}
	return cycleExec{e}, nil
}

type cycleExec struct{ *Exec }

func (e cycleExec) Stall(n uint64) {
	e.d.set(e.d.Mod.MemAck, false)
	for i := uint64(0); i < n; i++ {
		e.cycle()
	}
	e.stats.StallCycles += n
}

// TestStallMatchesCycleByCycle pins Exec.Stall to the one-cycle-per-stall
// loop it replaces: random HW-safe machines driven with seeded inputs, bus
// waits of 0-300 cycles and periodic SyncVars forcing must report the same
// energy bits, cycle and stall counts, emissions, memory operations and
// register values either way.
func TestStallMatchesCycleByCycle(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := cfsmtest.DefaultParams()
		p.HWSafe = true
		base := cfsmtest.Machine(fmt.Sprintf("stall%d", seed), p, rng)
		mod, err := Synthesize(base, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		run := func(engine func(*Driver) Engine) []transResult {
			m, err := mod.Rebind(base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDriver(m, 3.3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSeqWaits(engine(d), seed, 12, nil, 300)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := run(func(d *Driver) Engine { return DriverEngine{d} })
		want := run(func(d *Driver) Engine { return cycleEngine{DriverEngine{d}} })
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(float64(g.st.Energy)) != math.Float64bits(float64(w.st.Energy)) ||
				!reflect.DeepEqual(g, w) {
				t.Errorf("seed %d transition %d:\n got %+v\nwant %+v", seed, i, g, w)
			}
		}
	}
}

// TestStallKeepsEmittingPulses covers the one steady state the advance must
// not skip: an output-present pulse held high records an emission every
// cycle, so a stall over it clocks cycle by cycle even though no net moves.
func TestStallKeepsEmittingPulses(t *testing.T) {
	n := gate.NewNetlist("pulse")
	ack := n.Input("ack")
	hold := n.Input("hold")
	val := n.InputWord("val", 4)
	pulse := n.Or2(hold, ack)
	n.Flop(pulse, false, "q")
	mod := &Module{N: n, Width: 4, MemAck: ack, OutPresent: []gate.NetID{pulse}, OutVals: []gate.Word{val}}
	d, err := NewDriver(mod, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	d.set(hold, true)
	d.setWord(val, 9)
	e := &Exec{d: d}
	e.Stall(50)
	if len(e.stats.Emits) != 50 || e.stats.Emits[49] != (cfsm.Emission{Port: 0, Value: 9}) {
		t.Fatalf("50 stall cycles under a held pulse emitted %v", e.stats.Emits)
	}
}
