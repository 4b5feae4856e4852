package iss

import (
	"fmt"

	"repro/internal/sparc"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide ISS metrics (aggregated across every CPU instance; updated
// once per Call, not per instruction, to keep the atomics off the decode
// loop).
var (
	mCalls = telemetry.Default.Counter("coest_iss_calls_total", "ISS reaction invocations")
	mInsts = telemetry.Default.Counter("coest_iss_insts_total", "instructions executed by the ISS")
)

// HaltAddr is the magic return address used by Call: when the program
// counter reaches it, the current invocation has returned.
const HaltAddr = 0xFFFFFFF0

// DefaultStackTop is where Reset places %sp unless told otherwise.
const DefaultStackTop = 0x0080000

// RunStats aggregates the statistics the ISS reports back to the simulation
// master at each synchronization point (the paper's "cycles, power" arrows).
type RunStats struct {
	Insts  uint64
	Cycles uint64
	Stalls uint64 // pipeline bubbles included in Cycles
	Traps  uint64 // window spills/fills, divide-by-zero
	Energy units.Energy
}

// Sub returns s - base, field-wise.
func (s RunStats) Sub(base RunStats) RunStats {
	return RunStats{
		Insts:  s.Insts - base.Insts,
		Cycles: s.Cycles - base.Cycles,
		Stalls: s.Stalls - base.Stalls,
		Traps:  s.Traps - base.Traps,
		Energy: s.Energy - base.Energy,
	}
}

// Add returns s + o, field-wise.
func (s RunStats) Add(o RunStats) RunStats {
	return RunStats{
		Insts:  s.Insts + o.Insts,
		Cycles: s.Cycles + o.Cycles,
		Stalls: s.Stalls + o.Stalls,
		Traps:  s.Traps + o.Traps,
		Energy: s.Energy + o.Energy,
	}
}

// Time converts the cycle count to simulated time under timing model t.
func (s RunStats) Time(t *TimingModel) units.Time {
	return units.Time(s.Cycles) * t.Clock.Period()
}

// savedWindow is one spilled register window: locals (rf[16:24]) followed by
// ins (rf[24:32]).
type savedWindow [16]uint32

// CPU is one SPARC-like processor core.
//
// The register file is a flat 32-entry array in the architectural numbering
// (%g0-%g7, %o0-%o7, %l0-%l7, %i0-%i7) so the execution loop indexes it
// directly; SAVE/RESTORE shift the window by copying sub-ranges.
type CPU struct {
	Timing *TimingModel
	Power  *PowerModel
	Mem    *Mem

	// FetchHook, if set, observes every instruction fetch address. Used by
	// tests to validate the statically generated I-fetch traces that feed
	// the cache simulator.
	FetchHook func(addr uint32)

	// MaxInsts bounds a single Call (runaway-code guard).
	MaxInsts uint64

	progBase uint32
	dec      []decoded

	rf      [32]uint32
	winss   []savedWindow
	hwLive  int // live hardware windows, 1..Windows-1
	spilled int // frames currently spilled by overflow traps

	iccN, iccZ, iccV, iccC bool

	pc, npc uint32
	halted  bool

	stats       RunStats
	lastClass   sparc.Class
	pendingLoad sparc.Reg // G0 = none

	instCount [sparc.NumOpcodes]uint64
}

// New returns a CPU with the given models and memory, reset and ready.
func New(timing *TimingModel, power *PowerModel, mem *Mem) *CPU {
	c := &CPU{Timing: timing, Power: power, Mem: mem, MaxInsts: 50_000_000}
	c.Reset(DefaultStackTop)
	return c
}

// Reset clears registers and pipeline state and sets the stack pointer.
func (c *CPU) Reset(stackTop uint32) {
	c.rf = [32]uint32{}
	c.winss = c.winss[:0]
	c.hwLive = 1
	c.spilled = 0
	c.iccN, c.iccZ, c.iccV, c.iccC = false, false, false, false
	c.pc, c.npc = 0, 4
	c.halted = true
	c.pendingLoad = sparc.G0
	c.lastClass = sparc.ClassALU
	c.rf[sparc.SP] = stackTop
}

// LoadProgram installs the code image: words are written to memory and the
// instruction stream is predecoded once into the dense execution form, so
// Call never touches the encoded words again.
func (c *CPU) LoadProgram(p *sparc.Program) {
	writeProgram(c.Mem, p)
	c.progBase = p.Base
	c.dec = predecode(p, c.Timing)
}

func writeProgram(mem *Mem, p *sparc.Program) {
	for i, w := range p.Words {
		mem.Write32(p.Base+uint32(i)*4, w)
	}
}

// Image is a program made ready to run, once: its instruction stream
// predecoded against a timing model, and the memory it starts from (the
// program words, then whatever the loader's init wrote). An Image is
// read-only once built, so any number of CPUs may start from it, at once
// or one after another.
type Image struct {
	Timing *TimingModel
	base   uint32
	dec    []decoded
	mem    *Mem
}

// NewImage predecodes p against t and builds its initial memory: p's
// words, then init's writes (init may be nil).
func NewImage(p *sparc.Program, t *TimingModel, init func(*Mem)) *Image {
	mem := NewMem()
	writeProgram(mem, p)
	if init != nil {
		init(mem)
	}
	return &Image{Timing: t, base: p.Base, dec: predecode(p, t), mem: mem}
}

// LoadImage starts the CPU from img: its memory becomes a copy of img's
// initial memory (reusing the pages it has) and it runs img's predecoded
// stream. It is LoadProgram plus the loader's init, without redoing
// either. It panics when img was predecoded for another timing model.
func (c *CPU) LoadImage(img *Image) {
	if img.Timing != c.Timing {
		panic("iss: image predecoded for another timing model")
	}
	c.Mem.CopyFrom(img.mem)
	c.progBase = img.base
	c.dec = img.dec
}

// Stats returns the cumulative statistics since construction.
func (c *CPU) Stats() RunStats { return c.stats }

// InstCount returns how many times opcode op has executed.
func (c *CPU) InstCount(op sparc.Op) uint64 { return c.instCount[op] }

// Reg returns the value of register r in the current window.
func (c *CPU) Reg(r sparc.Reg) uint32 { return c.rf[r] }

// SetReg sets register r in the current window.
func (c *CPU) SetReg(r sparc.Reg, v uint32) { c.setReg(r, v) }

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// setReg writes register r. The write to %g0 is undone unconditionally,
// which keeps the store branchless on the hot path.
func (c *CPU) setReg(r sparc.Reg, v uint32) {
	c.rf[r] = v
	c.rf[sparc.G0] = 0
}

// Step executes exactly one instruction (plus its timing side effects).
func (c *CPU) Step() error {
	_, err := c.run(1)
	return err
}

// Call invokes the routine at entry with up to six word arguments in
// %o0..%o5, runs until it returns, and reports the statistics of just this
// invocation. This is the breakpoint-and-run protocol the simulation master
// uses once per CFSM transition. The return value is %o0 at return.
func (c *CPU) Call(entry uint32, args ...uint32) (uint32, RunStats, error) {
	if len(args) > 6 {
		return 0, RunStats{}, fmt.Errorf("iss: at most 6 register arguments, got %d", len(args))
	}
	base := c.stats
	for i, a := range args {
		c.rf[int(sparc.O0)+i] = a
	}
	c.rf[sparc.O7] = HaltAddr - 8 // so that retl (jmpl %o7+8) lands on HaltAddr
	c.pc, c.npc = entry, entry+4
	c.halted = false

	limit := c.MaxInsts + 1
	if limit == 0 { // MaxInsts == ^uint64(0)
		limit = ^uint64(0)
	}
	n, err := c.run(limit)
	mCalls.Inc()
	mInsts.Add(n)
	if err != nil {
		return 0, c.stats.Sub(base), err
	}
	if n > c.MaxInsts {
		return 0, c.stats.Sub(base), fmt.Errorf("iss: runaway call at entry %#x (> %d insts)", entry, c.MaxInsts)
	}
	return c.rf[sparc.O0], c.stats.Sub(base), nil
}
