package hwsyn

import (
	"fmt"
	"math"
	"slices"

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

	// Replay, if set, is the table of recorded courses the driver's
	// executions replay from and record into (see Replay).
	Replay *Replay

	in   gate.InputVector
	mask uint32

	// The memory credits of the execution in flight (a driver runs one
	// at a time), and the replay key of the last Begin.
	readCredit  map[uint32]uint32
	writeCredit map[uint32]bool
	key         []uint64
}

// SwitchEnergies returns the per-net switch energies of the module's
// netlist at supply voltage vdd, which its Drivers at that voltage share.
func (mod *Module) SwitchEnergies(vdd units.Voltage) *gate.SwitchEnergies {
	return mod.prog.SwitchEnergies(vdd)
}

// NewDriver starts a simulator of the module's compiled netlist at the
// supply voltage of sw, switch energies the module built (SwitchEnergies).
// It allocates only run state.
func NewDriver(mod *Module, sw *gate.SwitchEnergies) *Driver {
	if sw.Program() != mod.prog {
		panic("hwsyn: switch energies of another module")
	}
	return &Driver{
		Mod:       mod,
		Sim:       sw.NewSim(),
		MaxCycles: 10_000_000,
		in:        make(gate.InputVector, len(mod.N.Inputs)),
		mask:      uint32(1)<<uint(mod.Width) - 1,

		readCredit:  make(map[uint32]uint32),
		writeCredit: make(map[uint32]bool),
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
//
// With a Replay table on the driver, an Exec either replays a recorded
// course (course set), or simulates and may record one (rec set). Both
// answer the master exactly alike.
type Exec struct {
	d *Driver
	r *cfsm.Reaction

	stats  ExecStats
	lastPC uint64
	served bool
	done   bool

	// Replay: the course, how many of its cycles and accesses are booked,
	// whether Run has started, how many emissions are booked, and the
	// read data the memory port last held.
	course  *course
	cyc     int
	acc     int
	started bool
	emitted int
	rdata   uint32

	// Recording: the course so far, and whether its last access still
	// waits for service.
	rec     *course
	recOpen bool
}

// noPC is a micro-PC value no engine holds.
const noPC = 1<<63 - 1

// Begin binds the reaction's inputs and pulses Go (one cycle).
func (d *Driver) Begin(r *cfsm.Reaction) (*Exec, error) {
	mod := d.Mod
	if r.TransIdx < 0 || r.TransIdx >= len(mod.entries) {
		return nil, fmt.Errorf("hwsyn: transition %d out of range", r.TransIdx)
	}
	tr := mod.M.Transitions[r.TransIdx]
	for p := range mod.M.InputNames {
		d.setWord(mod.InVals[p], uint32(mod.M.InputVal(p))&d.mask)
		d.set(mod.InPresent[p], slices.Contains(tr.Trigger, p) || mod.M.Pending(p))
	}
	d.setWord(mod.TransSel, uint32(r.TransIdx))
	d.setWord(mod.MemRData, 0)
	d.set(mod.MemAck, false)
	clear(d.readCredit)
	clear(d.writeCredit)

	e := &Exec{d: d, r: r, lastPC: noPC}
	d.set(mod.Go, true)
	// A forced state is no key: gates may be pending that the packed
	// state does not show.
	if d.Replay != nil && !d.Sim.Forced() {
		d.key = d.appendKey(d.key[:0])
		if c := d.Replay.lookup(mod.prog, d.key); c != nil {
			mReplays.Inc()
			e.course = c
			e.book(1)
			d.set(mod.Go, false)
			return e, nil
		}
		if !d.Replay.full() {
			e.rec = &course{prog: mod.prog, key: slices.Clone(d.key), words: d.Sim.CompactWords()}
		}
	}
	e.cycle()
	if e.rec != nil {
		e.rec.states = d.Sim.AppendCompact(e.rec.states)
	}
	d.set(mod.Go, false)
	return e, nil
}

// appendKey appends the replay key of the execution Begin is about to
// start: the simulator's compact state, the input vector and the supply
// voltage.
func (d *Driver) appendKey(dst []uint64) []uint64 {
	dst = d.Sim.AppendCompact(dst)
	var w uint64
	for i, v := range d.in {
		if v {
			w |= 1 << (i & 63)
		}
		if i&63 == 63 || i == len(d.in)-1 {
			dst = append(dst, w)
			w = 0
		}
	}
	return append(dst, math.Float64bits(float64(d.Sim.Vdd)))
}

func (e *Exec) cycle() {
	ce := e.d.Sim.Cycle(e.d.in)
	e.stats.Energy += ce
	e.stats.Cycles++
	if e.rec != nil {
		e.rec.cycles = append(e.rec.cycles, ce)
	}
	mod := e.d.Mod
	for p, pulse := range mod.OutPresent {
		if e.d.Sim.Value(pulse) {
			em := cfsm.Emission{
				Port:  p,
				Value: cfsm.Value(uint32(e.d.Sim.WordValue(mod.OutVals[p]))),
			}
			e.stats.Emits = append(e.stats.Emits, em)
			if e.rec != nil {
				e.rec.emits = append(e.rec.emits, courseEmit{at: len(e.rec.cycles) - 1, em: em})
			}
		}
	}
}

// book books the course's cycles from the next unbooked one up to stop,
// with their emissions, in the recorded order.
func (e *Exec) book(stop int) {
	c := e.course
	es := c.cycles[e.cyc:stop]
	e.d.Sim.Book(es)
	for _, ce := range es {
		e.stats.Energy += ce
	}
	e.stats.Cycles += uint64(len(es))
	for ; e.emitted < len(c.emits) && c.emits[e.emitted].at < stop; e.emitted++ {
		e.stats.Emits = append(e.stats.Emits, c.emits[e.emitted].em)
	}
	e.cyc = stop
}

// leave ends a replay at the current position: the simulator takes the
// state recorded there, rebuilt from its compact form by one settle, the
// memory port the values it held, and the execution goes on as a real
// simulation. Every replay position is one where Run's loop would next
// look at the engine, so the loop resumes there exactly.
func (e *Exec) leave() {
	pos := 0
	if e.started {
		pos = e.acc + 1
	}
	d := e.d
	d.Sim.SetCompact(e.course.state(pos))
	d.setWord(d.Mod.MemRData, e.rdata)
	d.set(d.Mod.MemAck, false)
	e.course = nil
	e.lastPC, e.served = noPC, false
	mFallbacks.Inc()
}

// recordFrom starts recording, after a replay of c left it at a read it
// served other data, the course this execution takes: c's prefix up to
// that access, which it shared, then what it simulates from there. The
// access stays open for the data that serves it.
func (e *Exec) recordFrom(c *course) {
	if e.d.Replay.full() {
		return
	}
	at := c.access[e.acc].at
	e.rec = &course{
		prog: c.prog, key: c.key, words: c.words,
		cycles: slices.Clone(c.cycles[:at]),
		emits:  slices.Clone(c.emits[:e.emitted]),
		access: slices.Clone(c.access[:e.acc+1]),
		states: slices.Clone(c.states[:(e.acc+2)*c.words]),
	}
	e.recOpen = true
}

// replay answers Run from the course: it books compute cycles up to the
// next access the credits do not cover, or to Done.
func (e *Exec) replay() (Req, bool, error) {
	c, d := e.course, e.d
	if !e.started {
		stop := c.stop(0)
		if e.stats.Cycles+uint64(stop-e.cyc) > d.MaxCycles {
			e.leave()
			return e.Run()
		}
		e.started = true
		e.book(stop)
	}
	for e.acc < len(c.access) {
		a := &c.access[e.acc]
		var credited bool
		if a.write {
			credited = d.writeCredit[a.addr]
		} else {
			var v uint32
			v, credited = d.readCredit[a.addr]
			if credited && v&d.mask != a.data {
				// Another course from this start may have read v here.
				if alt := d.Replay.branch(c, e.acc, v&d.mask); alt != nil {
					e.course, c, a = alt, alt, &alt.access[e.acc]
				} else {
					e.leave()
					e.recordFrom(c)
					return e.Run()
				}
			}
		}
		if !credited {
			if e.stats.Cycles > d.MaxCycles {
				e.leave()
				return e.Run()
			}
			if a.write {
				return Req{Addr: a.addr, WData: a.data, Write: true}, true, nil
			}
			return Req{Addr: a.addr}, true, nil
		}
		// The real loop checks the cycle count once per cycle up to the
		// next stop; the last check sees the largest count.
		stop := c.stop(e.acc + 1)
		if e.stats.Cycles+uint64(stop-e.cyc) > d.MaxCycles {
			e.leave()
			return e.Run()
		}
		if a.write {
			delete(d.writeCredit, a.addr)
		} else {
			delete(d.readCredit, a.addr)
			e.rdata = a.data
		}
		e.stats.MemOps++
		e.acc++
		e.book(stop)
	}
	d.Sim.SetState(c.final)
	d.setWord(d.Mod.MemRData, e.rdata)
	d.set(d.Mod.MemAck, false)
	e.course = nil
	e.done = true
	return Req{}, false, nil
}

// Stats returns the statistics accumulated so far.
func (e *Exec) Stats() ExecStats { return e.stats }

// Done reports whether the transition has completed.
func (e *Exec) Done() bool { return e.done }

// Stall burns n idle clock cycles (the engine waiting for the bus).
func (e *Exec) Stall(n uint64) {
	if n == 0 {
		return
	}
	if e.course != nil {
		if e.started && e.course.access[e.acc].steady {
			// hold's fixed-point path, without a simulator to ask.
			ce := e.d.Sim.Advance(n)
			e.stats.Cycles += n
			for i := n; i > 0; i-- {
				e.stats.Energy += ce
			}
			e.stats.StallCycles += n
			return
		}
		e.leave()
	}
	if e.rec != nil && !(e.recOpen && e.rec.access[len(e.rec.access)-1].steady) {
		// The engine moves while it waits: the rest of this execution
		// is no zero-wait course.
		e.rec = nil
	}
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
func (e *Exec) CreditRead(addr, data uint32) { e.d.readCredit[addr] = data }

// CreditWrite marks a write address as posted: the engine's write there is
// acknowledged immediately (the block transfer already carried it).
func (e *Exec) CreditWrite(addr uint32) { e.d.writeCredit[addr] = true }

// Run advances the engine until the transition completes (needMem false) or
// it stalls on a memory access not covered by credit (needMem true).
func (e *Exec) Run() (req Req, needMem bool, err error) {
	if e.course != nil {
		return e.replay()
	}
	d, mod := e.d, e.d.Mod
	for {
		if e.stats.Cycles > d.MaxCycles {
			e.rec = nil
			return Req{}, false, fmt.Errorf("hwsyn: transition %d runaway (> %d cycles)",
				e.r.TransIdx, d.MaxCycles)
		}
		if d.Sim.Value(mod.Done) {
			e.done = true
			d.set(mod.MemAck, false)
			if e.rec != nil {
				e.rec.final = d.Sim.AppendState(nil)
				d.Replay.insert(e.rec)
				e.rec = nil
			}
			return Req{}, false, nil
		}

		pc := d.Sim.WordValue(mod.Upc)
		if pc != e.lastPC {
			e.served = false
			e.lastPC = pc
		}

		if d.Sim.Value(mod.MemReq) && !e.served {
			addr := uint32(d.Sim.WordValue(mod.MemAddr))
			write := d.Sim.Value(mod.MemWr)
			d.set(mod.MemAck, false)
			if e.rec != nil && !e.recOpen {
				e.record(addr, write)
			}
			if write {
				if d.writeCredit[addr] {
					delete(d.writeCredit, addr)
					e.stats.MemOps++
					d.set(mod.MemAck, true)
					e.served, e.recOpen = true, false
					e.cycle()
					continue
				}
				return Req{Addr: addr, WData: uint32(d.Sim.WordValue(mod.MemWData)), Write: true}, true, nil
			}
			if v, ok := d.readCredit[addr]; ok {
				delete(d.readCredit, addr)
				e.stats.MemOps++
				if e.rec != nil {
					e.rec.access[len(e.rec.access)-1].data = v & d.mask
				}
				d.setWord(mod.MemRData, v&d.mask)
				d.set(mod.MemAck, true)
				e.served, e.recOpen = true, false
				e.cycle()
				continue
			}
			return Req{Addr: addr}, true, nil
		}

		d.set(mod.MemAck, false)
		e.cycle()
	}
}

// record opens the access the engine has just requested in the course
// being recorded, with the state the engine holds there.
func (e *Exec) record(addr uint32, write bool) {
	d := e.d
	a := courseAccess{
		at:     len(e.rec.cycles),
		addr:   addr,
		write:  write,
		steady: d.Sim.Steady(d.in) && !e.pulsing(),
	}
	if write {
		a.data = uint32(d.Sim.WordValue(d.Mod.MemWData))
	}
	e.rec.access = append(e.rec.access, a)
	e.rec.states = d.Sim.AppendCompact(e.rec.states)
	e.recOpen = true
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
