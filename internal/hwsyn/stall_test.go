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

// execution is one in-flight transition: an *Exec, or the cycle-by-cycle
// reference's cycleExec.
type execution interface {
	Run() (req Req, needMem bool, err error)
	Stall(n uint64)
	CreditRead(addr, data uint32)
	CreditWrite(addr uint32)
	Stats() ExecStats
}

// engine is what the stall tests drive: a *Driver (an engine[*Exec]) or
// the cycle-by-cycle reference cycleDriver (an engine[cycleExec]).
type engine[E execution] interface {
	Begin(r *cfsm.Reaction) (E, error)
	SyncVars(vals []uint32)
	VarValue(vi int) uint32
}

// cycleDriver is the reference for Exec.Stall's steady advance: a Driver
// whose stalls clock one gate.Sim.Cycle per stall cycle.
type cycleDriver struct{ *Driver }

func (c cycleDriver) Begin(r *cfsm.Reaction) (cycleExec, error) {
	e, err := c.Driver.Begin(r)
	return cycleExec{e}, err
}

type cycleExec struct{ *Exec }

func (e cycleExec) Stall(n uint64) {
	e.d.set(e.d.Mod.MemAck, false)
	for i := uint64(0); i < n; i++ {
		e.cycle()
	}
	e.stats.StallCycles += n
}

// execVia drives one transition with the same Begin/Run/Stall/Credit loop
// the co-simulation core uses.
func execVia[E execution](eng engine[E], r *cfsm.Reaction, mem MemHandler) (ExecStats, error) {
	e, err := eng.Begin(r)
	if err != nil {
		return ExecStats{}, err
	}
	for {
		req, needMem, err := e.Run()
		if err != nil {
			return e.Stats(), err
		}
		if !needMem {
			return e.Stats(), nil
		}
		rdata, wait := mem(req.Addr, req.WData, req.Write)
		e.Stall(wait)
		if req.Write {
			e.CreditWrite(req.Addr)
		} else {
			e.CreditRead(req.Addr, rdata)
		}
	}
}

type transResult struct {
	st   ExecStats
	vars []uint32
}

// runSeqWaits replays a deterministic stimulus sequence on machine m through
// an engine — seeded inputs, seeded bus waits of 0..maxWait cycles, and
// periodic SyncVars forcing — and records per-transition stats and register
// state. The same seed on two engines of the same machine must produce
// bit-identical records.
func runSeqWaits[E execution](eng engine[E], m *cfsm.CFSM, seed int64, nTrans, maxWait int) ([]transResult, error) {
	rng := rand.New(rand.NewSource(seed))
	shm := sharedMem{}
	for a := uint32(0); a < 64; a++ {
		shm[a] = cfsm.Value(rng.Intn(cfsmtest.Mask + 1))
	}
	var out []transResult
	for i := 0; i < nTrans; i++ {
		if i%3 == 1 {
			// Force divergent register state through ForceFlop, like the
			// acceleration paths do after skipped executions.
			vals := make([]uint32, len(m.VarNames))
			for vi := range vals {
				vals[vi] = uint32(rng.Intn(256))
			}
			eng.SyncVars(vals)
		}
		m.Post(0, cfsm.Value(rng.Intn(cfsmtest.Mask+1)))
		r, ok := m.React(shm)
		if !ok {
			return nil, fmt.Errorf("machine %s did not react", m.Name)
		}
		mem := func(addr, wdata uint32, write bool) (uint32, uint64) {
			wait := uint64(rng.Intn(maxWait + 1))
			if write {
				return 0, wait
			}
			for _, op := range r.MemOps {
				if !op.Write && op.Addr == addr {
					return uint32(op.Data), wait
				}
			}
			return 0, wait
		}
		st, err := execVia(eng, r, mem)
		if err != nil {
			return nil, err
		}
		vars := make([]uint32, len(m.VarNames))
		for vi := range vars {
			vars[vi] = eng.VarValue(vi)
		}
		out = append(out, transResult{st, vars})
	}
	return out, nil
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
		run := func(cycleByCycle bool) []transResult {
			m, err := mod.Rebind(base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			d := NewDriver(m, 3.3)
			var res []transResult
			if cycleByCycle {
				res, err = runSeqWaits(cycleDriver{d}, m.M, seed, 12, 300)
			} else {
				res, err = runSeqWaits(d, m.M, seed, 12, 300)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := run(false)
		want := run(true)
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
	if err := mod.compile(); err != nil {
		t.Fatal(err)
	}
	d := NewDriver(mod, 3.3)
	d.set(hold, true)
	d.setWord(val, 9)
	e := &Exec{d: d}
	e.Stall(50)
	if len(e.stats.Emits) != 50 || e.stats.Emits[49] != (cfsm.Emission{Port: 0, Value: 9}) {
		t.Fatalf("50 stall cycles under a held pulse emitted %v", e.stats.Emits)
	}
}
