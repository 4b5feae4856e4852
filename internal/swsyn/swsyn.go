// Package swsyn is the software-synthesis stage of the co-design flow: it
// compiles CFSM transitions into real SPARC machine code (the role POLIS's
// C-code generation plus the target compiler play in Figure 2(a) of the
// paper), lays the functions out in a single program image, and — critically
// for the paper's acceleration results — can reconstruct the exact
// instruction-fetch address trace of any executed path from the behavioral
// reaction alone, so the cache simulator can be fed by the simulation master
// without invoking the ISS.
//
// All data-dependent expression code is generated branchlessly (classic
// mask tricks); the only branches in generated code are If statements,
// bounded loops, guards/event detection (never-taken aborts) and emit calls,
// whose outcomes are all recorded in cfsm.Reaction.Decisions.
package swsyn

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/iss"
	"repro/internal/sparc"
)

// Memory map of the synthesized software image.
const (
	CodeBase      = 0x0000_1000 // program text
	DataBase      = 0x0010_0000 // per-machine data, MachineStride apart
	MachineStride = 0x0000_1000
	VarsOff       = 0x000       // one word per variable
	InBufOff      = 0x400       // per input port: flag word, value word
	OutBufOff     = 0x800       // per output port: flag word, value word
	SharedBase    = 0x0020_0000 // shared memory window (word addressed)
	StackTop      = 0x0030_0000
)

// Range is a half-open byte-address interval [Start, End).
type Range struct{ Start, End uint32 }

// Len returns the number of instruction words in the range.
func (r Range) Len() int { return int(r.End-r.Start) / 4 }

// Addrs expands the range into per-word fetch addresses.
func (r Range) Addrs() []uint32 {
	out := make([]uint32, 0, r.Len())
	for a := r.Start; a < r.End; a += 4 {
		out = append(out, a)
	}
	return out
}

// Compiled is the synthesized software image for a set of machines.
type Compiled struct {
	Prog      *sparc.Program
	Machines  []*MachineCode
	EmitRange Range // the rt_emit runtime routine
}

// MachineCode is the synthesized artifact for one machine.
type MachineCode struct {
	M        *cfsm.CFSM
	VarsBase uint32
	InBase   uint32
	OutBase  uint32
	Entries  []uint32 // transition entry addresses
	CodeSize uint32   // bytes of text attributable to this machine

	layouts   []*transLayout
	emitRange *Range // shared with Compiled
}

type transLayout struct {
	pre      Range // save, base setup, event detection, guard
	hasGuard bool
	body     []stmtLayout
	post     Range // abort label, ret, restore
}

type stmtLayout interface{ isLayout() }

type straightL struct{ r Range }

type emitL struct{ call Range }

type ifL struct {
	cond     Range // condition eval + test + branch + slot
	thenB    []stmtLayout
	thenJump Range // "ba end; nop" after then-block (empty when no else)
	elseB    []stmtLayout
}

type loopL struct {
	init   Range // trip-count eval + counter setup
	header Range // test + exit branch + slot
	body   []stmtLayout
	latch  Range // decrement + back-branch + slot
}

func (straightL) isLayout() {}
func (emitL) isLayout()     {}
func (ifL) isLayout()       {}
func (loopL) isLayout()     {}

// Compile synthesizes code for all machines into one program image.
// The machine order defines the data-region assignment.
func Compile(machines []*cfsm.CFSM) (*Compiled, error) {
	a := sparc.NewAsm(CodeBase)
	c := &Compiled{}

	// Runtime first: rt_emit(slotAddr in %o0, value in %o1) writes the
	// outbox slot and performs the RTOS event-delivery bookkeeping that
	// makes AEMIT one of the most expensive macro-operations (Fig 3).
	emitStart := a.Here()
	a.Label("rt_emit")
	a.Store(sparc.ST, sparc.O1, sparc.O0, 4) // value
	a.Movi(sparc.G1, 1)
	a.Store(sparc.ST, sparc.G1, sparc.O0, 0) // present flag
	// RTOS queue bookkeeping (event counter, scheduler poke).
	a.Set32(sparc.G2, DataBase-0x100) // RTOS control block
	a.Load(sparc.LD, sparc.G3, sparc.G2, 0)
	a.Op3i(sparc.ADD, sparc.G3, sparc.G3, 1)
	a.Store(sparc.ST, sparc.G3, sparc.G2, 0)
	a.Load(sparc.LD, sparc.G3, sparc.G2, 4)
	a.Op3(sparc.OR, sparc.G3, sparc.G3, sparc.G1)
	a.Store(sparc.ST, sparc.G3, sparc.G2, 4)
	a.Retl()
	a.Nop()
	c.EmitRange = Range{emitStart, a.Here()}

	for mi, m := range machines {
		mc := &MachineCode{
			M:        m,
			VarsBase: DataBase + uint32(mi)*MachineStride + VarsOff,
			InBase:   DataBase + uint32(mi)*MachineStride + InBufOff,
			OutBase:  DataBase + uint32(mi)*MachineStride + OutBufOff,
		}
		mc.emitRange = &c.EmitRange
		if err := checkLimits(m); err != nil {
			return nil, err
		}
		start := a.Here()
		for ti, tr := range m.Transitions {
			g := &codegen{a: a, mc: mc, machine: mi, trans: ti}
			lay, err := g.transition(tr)
			if err != nil {
				return nil, fmt.Errorf("swsyn: %s transition %d: %w", m.Name, ti, err)
			}
			mc.layouts = append(mc.layouts, lay)
		}
		mc.CodeSize = a.Here() - start
		c.Machines = append(c.Machines, mc)
	}

	prog, err := a.Assemble()
	if err != nil {
		return nil, err
	}
	c.Prog = prog
	for mi, mc := range c.Machines {
		for ti := range mc.M.Transitions {
			addr, ok := prog.AddrOf(entryName(mi, ti))
			if !ok {
				return nil, fmt.Errorf("swsyn: missing entry for machine %d transition %d", mi, ti)
			}
			mc.Entries = append(mc.Entries, addr)
		}
	}
	return c, nil
}

func entryName(machine, trans int) string { return fmt.Sprintf("m%d_t%d", machine, trans) }

func checkLimits(m *cfsm.CFSM) error {
	if len(m.VarNames) > 128 {
		return fmt.Errorf("swsyn: machine %s has %d variables (max 128)", m.Name, len(m.VarNames))
	}
	if len(m.InputNames) > 64 || len(m.OutputNames) > 64 {
		return fmt.Errorf("swsyn: machine %s has too many ports", m.Name)
	}
	return nil
}

// InitMemory writes the initial variable values and clears the event
// buffers of every machine (the load-time image of the data segment).
func (c *Compiled) InitMemory(mem *iss.Mem) {
	for _, mc := range c.Machines {
		for vi, v := range mc.M.VarInit {
			mem.Write32(mc.VarsBase+uint32(vi)*4, uint32(v))
		}
		for p := range mc.M.InputNames {
			mem.Write32(mc.InBase+uint32(p)*8, 0)
			mem.Write32(mc.InBase+uint32(p)*8+4, 0)
		}
		for p := range mc.M.OutputNames {
			mem.Write32(mc.OutBase+uint32(p)*8, 0)
			mem.Write32(mc.OutBase+uint32(p)*8+4, 0)
		}
	}
}

// BindReaction prepares the ISS input buffer for replaying reaction r on
// machine mc: trigger ports are flagged present with their latched values
// (this is the "state, input values" transfer of Fig 2(b)). It also seeds
// the shared-memory window with the values the behavioral execution read, so
// generated loads observe the same data.
func (mc *MachineCode) BindReaction(mem *iss.Mem, r *cfsm.Reaction) {
	tr := mc.M.Transitions[r.TransIdx]
	trig := make(map[int]bool, len(tr.Trigger))
	for _, p := range tr.Trigger {
		trig[p] = true
	}
	for p := range mc.M.InputNames {
		flag := uint32(0)
		if trig[p] || mc.M.Pending(p) {
			flag = 1
		}
		mem.Write32(mc.InBase+uint32(p)*8, flag)
		mem.Write32(mc.InBase+uint32(p)*8+4, uint32(mc.M.InputVal(p)))
	}
	for _, op := range r.MemOps {
		if !op.Write {
			mem.Write32(SharedBase+op.Addr*4, uint32(op.Data))
		}
	}
}

// ReadOutbox drains the machine's outbox: it returns the emissions flagged
// by the last generated-code run (one slot per port — POLIS's single-place
// event buffers) and clears the flags.
func (mc *MachineCode) ReadOutbox(mem *iss.Mem) []cfsm.Emission {
	var out []cfsm.Emission
	for p := range mc.M.OutputNames {
		flagAddr := mc.OutBase + uint32(p)*8
		if mem.Read32(flagAddr) != 0 {
			out = append(out, cfsm.Emission{
				Port:  p,
				Value: cfsm.Value(mem.Read32(flagAddr + 4)),
			})
			mem.Write32(flagAddr, 0)
		}
	}
	return out
}

// SyncVars forces the machine's variables in ISS memory to the given
// behavioral values. Acceleration techniques that skip ISS invocations leave
// the ISS data segment stale; the master calls this with the behavioral
// pre-reaction state before the next real invocation.
func (mc *MachineCode) SyncVars(mem *iss.Mem, vals []cfsm.Value) {
	for vi, v := range vals {
		if vi >= len(mc.M.VarNames) {
			break
		}
		mem.Write32(mc.VarsBase+uint32(vi)*4, uint32(v))
	}
}

// VarValues reads the machine's variables back from ISS memory, for
// verifying generated code against the behavioral model.
func (mc *MachineCode) VarValues(mem *iss.Mem) []cfsm.Value {
	out := make([]cfsm.Value, len(mc.M.VarNames))
	for vi := range out {
		out[vi] = cfsm.Value(mem.Read32(mc.VarsBase + uint32(vi)*4))
	}
	return out
}

// Rebind returns a copy of the compiled image bound to a different set of
// machine instances — typically clones of the machines the image was
// compiled from (see cfsm.CFSM.Clone). The program text, layouts and entry
// tables are shared read-only; only the per-machine runtime binding (the M
// pointer the master consults for pending events and latched input values
// at replay time) changes. machines must be position-matched with the
// compile-time set: same specifications in the same order.
//
// Rebind is what lets one swsyn.Compile serve many concurrent simulations:
// compile once, rebind per run.
func (c *Compiled) Rebind(machines []*cfsm.CFSM) (*Compiled, error) {
	if len(machines) != len(c.Machines) {
		return nil, fmt.Errorf("swsyn: rebind with %d machines, image has %d", len(machines), len(c.Machines))
	}
	out := &Compiled{Prog: c.Prog, EmitRange: c.EmitRange}
	out.Machines = make([]*MachineCode, len(c.Machines))
	for i, mc := range c.Machines {
		if machines[i].Name != mc.M.Name || len(machines[i].Transitions) != len(mc.M.Transitions) {
			return nil, fmt.Errorf("swsyn: rebind machine %d is %q, image has %q", i, machines[i].Name, mc.M.Name)
		}
		nmc := *mc
		nmc.M = machines[i]
		nmc.emitRange = &out.EmitRange
		out.Machines[i] = &nmc
	}
	return out, nil
}
