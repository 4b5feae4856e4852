package hwsyn

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/gate"
	"repro/internal/units"
)

// MemHandler services one shared-memory access from the hardware: it
// receives the address and (for writes) data the netlist drove, performs the
// system-level side effect, and returns the read data plus the number of
// bus-wait cycles the engine must stall (the arbitration/transfer latency
// the bus model computed). The stall cycles are burned on the netlist
// clock, so waiting hardware still dissipates clock power.
type MemHandler func(addr uint32, wdata uint32, write bool) (rdata uint32, waitCycles uint64)

// ExecStats reports one transition execution on the hardware engine.
type ExecStats struct {
	Cycles      uint64 // total clock cycles, including bus-wait stalls
	StallCycles uint64 // cycles spent stalled on the memory port
	Energy      units.Energy
	Emits       []cfsm.Emission
	MemOps      int
}

// ComputeCycles returns the stall-free cycle count.
func (s ExecStats) ComputeCycles() uint64 { return s.Cycles - s.StallCycles }

// Req is a shared-memory access the engine is stalled on, waiting for the
// simulation master to arbitrate the bus and acknowledge.
type Req struct {
	Addr  uint32
	WData uint32
	Write bool
}

// Driver owns a gate-level simulator instance for a module and implements
// the simulation-master protocol: bind inputs, pulse Go, clock to Done.
type Driver struct {
	Mod *Module
	Sim *gate.Sim

	// MaxCycles bounds one transition execution (runaway guard).
	MaxCycles uint64

	in   gate.InputVector
	mask uint32
}

// NewDriver starts a simulator of the module's compiled netlist at the given
// supply voltage. It allocates only run state.
func NewDriver(mod *Module, vdd units.Voltage) *Driver {
	return &Driver{
		Mod:       mod,
		Sim:       mod.prog.NewSim(vdd),
		MaxCycles: 10_000_000,
		in:        make(gate.InputVector, len(mod.N.Inputs)),
		mask:      uint32(1)<<uint(mod.Width) - 1,
	}
}

// set drives input port net id, which compile verified is a primary input.
func (d *Driver) set(id gate.NetID, v bool) { d.in[d.Mod.inPos[id]] = v }

func (d *Driver) setWord(w gate.Word, v uint32) {
	for b, id := range w {
		d.set(id, v>>uint(b)&1 == 1)
	}
}

// Mask returns the datapath mask (low Width bits).
func (d *Driver) Mask() uint32 { return d.mask }

// SyncVars forces the hardware variable registers to the given behavioral
// values (truncated to the datapath width). Used after acceleration
// techniques skip executions, so the next real execution starts from the
// state the behavioral model says the block is in.
func (d *Driver) SyncVars(vals []uint32) {
	for vi, flops := range d.Mod.varFlops {
		if vi >= len(vals) {
			break
		}
		v := vals[vi] & d.mask
		for b, fi := range flops {
			d.Sim.ForceFlop(int(fi), v>>uint(b)&1 == 1)
		}
	}
}

// VarValue reads variable vi from the hardware registers.
func (d *Driver) VarValue(vi int) uint32 {
	return uint32(d.Sim.WordValue(d.Mod.VarRegs[vi]))
}

// IdleCycles clocks the engine n cycles with no stimulus (idle power).
func (d *Driver) IdleCycles(n uint64) units.Energy {
	d.set(d.Mod.Go, false)
	e := Exec{d: d}
	e.hold(n)
	return e.stats.Energy
}

// Exec is one in-flight transition execution. The simulation master resumes
// it with Run, services its memory requests (Stall + CreditRead/CreditWrite)
// as the bus model dictates, and reads the final Stats. This resumable
// protocol lets hardware memory traffic interleave with the rest of the
// system in discrete-event time — the coupling that makes HW power depend on
// bus contention, DMA size and priorities (paper §5.3).
type Exec struct {
	d *Driver
	r *cfsm.Reaction

	stats  ExecStats
	lastPC uint64
	served bool
	done   bool

	readCredit  map[uint32]uint32
	writeCredit map[uint32]bool
}

// Begin binds the reaction's inputs and pulses Go (one cycle).
func (d *Driver) Begin(r *cfsm.Reaction) (*Exec, error) {
	mod := d.Mod
	if r.TransIdx < 0 || r.TransIdx >= len(mod.entries) {
		return nil, fmt.Errorf("hwsyn: transition %d out of range", r.TransIdx)
	}
	tr := mod.M.Transitions[r.TransIdx]
	trig := map[int]bool{}
	for _, p := range tr.Trigger {
		trig[p] = true
	}
	for p := range mod.M.InputNames {
		d.setWord(mod.InVals[p], uint32(mod.M.InputVal(p))&d.mask)
		d.set(mod.InPresent[p], trig[p] || mod.M.Pending(p))
	}
	d.setWord(mod.TransSel, uint32(r.TransIdx))
	d.setWord(mod.MemRData, 0)
	d.set(mod.MemAck, false)

	e := &Exec{
		d: d, r: r,
		lastPC:      1<<63 - 1,
		readCredit:  make(map[uint32]uint32),
		writeCredit: make(map[uint32]bool),
	}
	d.set(mod.Go, true)
	e.cycle()
	d.set(mod.Go, false)
	return e, nil
}

func (e *Exec) cycle() {
	e.stats.Energy += e.d.Sim.Cycle(e.d.in)
	e.stats.Cycles++
	mod := e.d.Mod
	for p, pulse := range mod.OutPresent {
		if e.d.Sim.Value(pulse) {
			e.stats.Emits = append(e.stats.Emits, cfsm.Emission{
				Port:  p,
				Value: cfsm.Value(uint32(e.d.Sim.WordValue(mod.OutVals[p]))),
			})
		}
	}
}

// Stats returns the statistics accumulated so far.
func (e *Exec) Stats() ExecStats { return e.stats }

// Done reports whether the transition has completed.
func (e *Exec) Done() bool { return e.done }

// Stall burns n idle clock cycles (the engine waiting for the bus).
func (e *Exec) Stall(n uint64) {
	e.d.set(e.d.Mod.MemAck, false)
	e.hold(n)
	e.stats.StallCycles += n
}

// hold clocks n cycles with the input vector held. Once the netlist is
// steady and no output-present pulse is high, every remaining cycle would
// repeat the last one — clock energy only, no toggles, no emissions — so the
// simulator advances through them without gate work, and the per-cycle
// energy is added n times in sequence exactly as n cycle calls would.
func (e *Exec) hold(n uint64) {
	sim := e.d.Sim
	for ; n > 0; n-- {
		if sim.Steady(e.d.in) && !e.pulsing() {
			ce := sim.Advance(n)
			e.stats.Cycles += n
			for ; n > 0; n-- {
				e.stats.Energy += ce
			}
			return
		}
		e.cycle()
	}
}

// pulsing reports whether any output-present pulse is high; each cycle it
// stays high records an emission.
func (e *Exec) pulsing() bool {
	for _, pulse := range e.d.Mod.OutPresent {
		if e.d.Sim.Value(pulse) {
			return true
		}
	}
	return false
}

// CreditRead supplies read data for an address (e.g. a whole fetched DMA
// block): reads of credited addresses are acknowledged without involving
// the master again.
func (e *Exec) CreditRead(addr, data uint32) { e.readCredit[addr] = data }

// CreditWrite marks a write address as posted: the engine's write there is
// acknowledged immediately (the block transfer already carried it).
func (e *Exec) CreditWrite(addr uint32) { e.writeCredit[addr] = true }

// Run advances the engine until the transition completes (needMem false) or
// it stalls on a memory access not covered by credit (needMem true).
func (e *Exec) Run() (req Req, needMem bool, err error) {
	mod := e.d.Mod
	for {
		if e.stats.Cycles > e.d.MaxCycles {
			return Req{}, false, fmt.Errorf("hwsyn: transition %d runaway (> %d cycles)",
				e.r.TransIdx, e.d.MaxCycles)
		}
		if e.d.Sim.Value(mod.Done) {
			e.done = true
			e.d.set(mod.MemAck, false)
			return Req{}, false, nil
		}

		pc := e.d.Sim.WordValue(mod.Upc)
		if pc != e.lastPC {
			e.served = false
			e.lastPC = pc
		}

		if e.d.Sim.Value(mod.MemReq) && !e.served {
			addr := uint32(e.d.Sim.WordValue(mod.MemAddr))
			write := e.d.Sim.Value(mod.MemWr)
			if write {
				if e.writeCredit[addr] {
					delete(e.writeCredit, addr)
					e.stats.MemOps++
					e.d.set(mod.MemAck, true)
					e.served = true
					e.cycle()
					continue
				}
				e.d.set(mod.MemAck, false)
				return Req{Addr: addr, WData: uint32(e.d.Sim.WordValue(mod.MemWData)), Write: true}, true, nil
			}
			if v, ok := e.readCredit[addr]; ok {
				delete(e.readCredit, addr)
				e.stats.MemOps++
				e.d.setWord(mod.MemRData, v&e.d.mask)
				e.d.set(mod.MemAck, true)
				e.served = true
				e.cycle()
				continue
			}
			e.d.set(mod.MemAck, false)
			return Req{Addr: addr}, true, nil
		}

		e.d.set(mod.MemAck, false)
		e.cycle()
	}
}

// ExecTransition runs a whole transition to completion, servicing memory
// accesses through mem (nil means zero-wait accesses backed by the
// reaction's own read values). It is the synchronous convenience wrapper
// over the Begin/Run/Credit protocol, used by tests and trace replay.
func (d *Driver) ExecTransition(r *cfsm.Reaction, mem MemHandler) (ExecStats, error) {
	if mem == nil {
		reads := r.MemOps
		mem = func(addr, wdata uint32, write bool) (uint32, uint64) {
			for _, op := range reads {
				if !op.Write && op.Addr == addr {
					return uint32(op.Data) & d.mask, 0
				}
			}
			return 0, 0
		}
	}
	e, err := d.Begin(r)
	if err != nil {
		return ExecStats{}, err
	}
	for {
		req, needMem, err := e.Run()
		if err != nil {
			return e.stats, err
		}
		if !needMem {
			return e.stats, nil
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
