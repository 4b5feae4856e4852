// Package hwsyn is the hardware-synthesis stage of the co-design flow: it
// compiles a CFSM into a gate-level netlist (the role of the "HW synthesis"
// box in Figure 2(a) of the paper), which the gate-level power simulator
// (internal/gate) then executes cycle by cycle under the control of the
// simulation master.
//
// The synthesized architecture is a small micro-programmed engine:
//
//   - one micro-step per statement of the transition's action program;
//   - a micro-PC register with per-step decoded one-hot enables;
//   - W-bit variable registers and per-nesting-level loop counters;
//   - a request/acknowledge memory port so shared-memory accesses stall the
//     engine for as many cycles as the bus model dictates — this is exactly
//     the coupling that makes HW power depend on DMA size and priorities
//     even though the netlist is unchanged (paper §5.3).
//
// The master selects which transition to run (it owns the behavioral state),
// pulses Go, and clocks the netlist until Done.
package hwsyn

import (
	"errors"
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/gate"
)

// Config parameterizes synthesis.
type Config struct {
	// Width is the datapath width in bits (default 16).
	Width int
}

// DefaultConfig returns the 16-bit datapath configuration.
func DefaultConfig() Config { return Config{Width: 16} }

type stepKind uint8

const (
	stepIdle stepKind = iota
	stepAssign
	stepEmit
	stepBranch // two-way branch on an expression
	stepLoopInit
	stepLoopTest
	stepLoopDec
	stepMemRead
	stepMemWrite
	stepDone
)

type step struct {
	kind stepKind
	expr *cfsm.Expr // assign/emit value, branch cond, loop count, mem addr
	val  *cfsm.Expr // memWrite data
	vr   int        // variable index (assign, memRead)
	port int        // emit port
	ctr  int        // loop counter index
	tT   int        // branch taken / loop-body target
	tF   int        // branch not-taken / loop-exit target
	next int        // sequential successor
}

// Module is the synthesized hardware block for one machine.
type Module struct {
	M     *cfsm.CFSM
	N     *gate.Netlist
	Width int

	// Primary inputs.
	Go        gate.NetID
	TransSel  gate.Word
	InVals    []gate.Word  // per input port: latched event value
	InPresent []gate.NetID // per input port: presence line
	MemRData  gate.Word
	MemAck    gate.NetID

	// Primary outputs.
	Done       gate.NetID
	OutPresent []gate.NetID
	OutVals    []gate.Word
	MemReq     gate.NetID
	MemWr      gate.NetID
	MemAddr    gate.Word
	MemWData   gate.Word

	// Observable state (flop outputs).
	Upc     gate.Word
	VarRegs []gate.Word

	entries []int // entry step per transition
	steps   []step

	// What every Driver of the module shares, built once by compile: the
	// gate program; per net up to the last primary input, its position in
	// N.Inputs (-1 for other nets); and per variable-register bit, the index
	// of its flop.
	prog     *gate.Program
	inPos    []int32
	varFlops [][]int32
}

// NumSteps returns the micro-program length (including idle and done steps).
func (m *Module) NumSteps() int { return len(m.steps) }

// EntryStep returns the first micro-step of transition ti.
func (m *Module) EntryStep(ti int) int { return m.entries[ti] }

// Synthesize compiles machine m into a gate-level module.
func Synthesize(m *cfsm.CFSM, cfg Config) (*Module, error) {
	if cfg.Width <= 0 || cfg.Width > 32 {
		return nil, fmt.Errorf("hwsyn: bad width %d", cfg.Width)
	}
	sy := &synth{
		mod: &Module{M: m, Width: cfg.Width},
	}
	if err := sy.flatten(); err != nil {
		return nil, err
	}
	if err := sy.build(); err != nil {
		return nil, err
	}
	if err := sy.mod.compile(); err != nil {
		return nil, err
	}
	return sy.mod, nil
}

// compile builds the module's shared run-time tables: the gate program and
// the positions of its input ports and variable-register bits. It fails when
// the netlist does not compile, when a port names a net the netlist lacks,
// when an input port is not a primary input, or when a variable-register
// bit is not a flop output.
func (mod *Module) compile() error {
	prog, err := gate.Compile(mod.N)
	if err != nil {
		return err
	}
	n := mod.N
	nn := n.NumNets()
	// Synthesis allocates the primary inputs first, so a table spanning
	// them stays small.
	span := 0
	for _, id := range n.Inputs {
		span = max(span, int(id)+1)
	}
	inPos := make([]int32, span)
	for i := range inPos {
		inPos[i] = -1
	}
	for i, id := range n.Inputs {
		inPos[id] = int32(i)
	}

	// check verifies that every net of a port is in range and, for an
	// input port, is a primary input.
	check := func(port string, input bool, ids ...gate.NetID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= nn {
				return fmt.Errorf("hwsyn: module %q: %s net %d out of range (%d nets)", n.Name, port, id, nn)
			}
			if input && (int(id) >= span || inPos[id] < 0) {
				return fmt.Errorf("hwsyn: module %q: %s net %q is not a primary input", n.Name, port, n.NetName(id))
			}
		}
		return nil
	}
	errs := []error{
		check("go", true, mod.Go),
		check("transition select", true, mod.TransSel...),
		check("memory read data", true, mod.MemRData...),
		check("memory ack", true, mod.MemAck),
		check("input present", true, mod.InPresent...),
		check("done", false, mod.Done),
		check("output present", false, mod.OutPresent...),
		check("memory request", false, mod.MemReq, mod.MemWr),
		check("memory address", false, mod.MemAddr...),
		check("memory write data", false, mod.MemWData...),
		check("micro-PC", false, mod.Upc...),
	}
	for _, w := range mod.InVals {
		errs = append(errs, check("input value", true, w...))
	}
	for _, w := range mod.OutVals {
		errs = append(errs, check("output value", false, w...))
	}
	for _, w := range mod.VarRegs {
		errs = append(errs, check("variable register", false, w...))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}

	flopOf := make(map[gate.NetID]int32, len(n.DFFs))
	for i, ff := range n.DFFs {
		flopOf[ff.Q] = int32(i)
	}
	varFlops := make([][]int32, len(mod.VarRegs))
	for vi, w := range mod.VarRegs {
		varFlops[vi] = make([]int32, len(w))
		for b, id := range w {
			fi, ok := flopOf[id]
			if !ok {
				return fmt.Errorf("hwsyn: module %q: variable register net %q is not a flop output", n.Name, n.NetName(id))
			}
			varFlops[vi][b] = fi
		}
	}
	mod.prog, mod.inPos, mod.varFlops = prog, inPos, varFlops
	return nil
}

type synth struct {
	mod      *Module
	maxLoops int
	ctrQ     []gate.Word
	err      error
}

func (sy *synth) fail(format string, args ...any) {
	if sy.err == nil {
		sy.err = fmt.Errorf("hwsyn: machine %s: "+format,
			append([]any{sy.mod.M.Name}, args...)...)
	}
}

// flatten lowers every transition's action into the micro-step list.
func (sy *synth) flatten() error {
	m := sy.mod
	m.steps = []step{{kind: stepIdle}} // step 0
	for _, tr := range m.M.Transitions {
		entry := len(m.steps)
		m.entries = append(m.entries, entry)
		if tr.Guard != nil {
			// Guard false would abort; the master only dispatches enabled
			// transitions, but the test hardware is still synthesized.
			bi := sy.emitStep(step{kind: stepBranch, expr: tr.Guard})
			sy.flattenBlock(tr.Action, 0)
			done := sy.emitStep(step{kind: stepDone})
			m.steps[bi].tT = bi + 1
			m.steps[bi].tF = done
		} else {
			sy.flattenBlock(tr.Action, 0)
			sy.emitStep(step{kind: stepDone})
		}
	}
	if sy.err != nil {
		return sy.err
	}
	// Fill sequential successors.
	for i := range m.steps {
		m.steps[i].next = i + 1
	}
	m.steps[0].next = 0
	return nil
}

func (sy *synth) emitStep(s step) int {
	sy.mod.steps = append(sy.mod.steps, s)
	return len(sy.mod.steps) - 1
}

func (sy *synth) flattenBlock(b []cfsm.Stmt, loopDepth int) {
	for _, s := range b {
		sy.flattenStmt(s, loopDepth)
	}
}

func (sy *synth) flattenStmt(s cfsm.Stmt, loopDepth int) {
	m := sy.mod
	switch s := s.(type) {
	case *cfsm.AssignStmt:
		sy.emitStep(step{kind: stepAssign, vr: s.Var, expr: s.E})
	case *cfsm.EmitStmt:
		e := s.E
		if e == nil {
			e = cfsm.Const(0)
		}
		sy.emitStep(step{kind: stepEmit, port: s.Port, expr: e})
	case *cfsm.IfStmt:
		bi := sy.emitStep(step{kind: stepBranch, expr: s.Cond})
		sy.flattenBlock(s.Then, loopDepth)
		if len(s.Else) > 0 {
			ji := sy.emitStep(step{kind: stepBranch, expr: cfsm.Const(1)})
			elseStart := len(m.steps)
			sy.flattenBlock(s.Else, loopDepth)
			end := len(m.steps)
			m.steps[bi].tT = bi + 1
			m.steps[bi].tF = elseStart
			m.steps[ji].tT = end
			m.steps[ji].tF = end
		} else {
			end := len(m.steps)
			m.steps[bi].tT = bi + 1
			m.steps[bi].tF = end
		}
	case *cfsm.RepeatStmt:
		if loopDepth >= 4 {
			sy.fail("loops nested deeper than 4")
			return
		}
		if loopDepth+1 > sy.maxLoops {
			sy.maxLoops = loopDepth + 1
		}
		sy.emitStep(step{kind: stepLoopInit, ctr: loopDepth, expr: s.Count})
		ti := sy.emitStep(step{kind: stepLoopTest, ctr: loopDepth})
		sy.flattenBlock(s.Body, loopDepth+1)
		di := sy.emitStep(step{kind: stepLoopDec, ctr: loopDepth})
		m.steps[ti].tT = ti + 1
		m.steps[ti].tF = di + 1 // exit past the dec step
		m.steps[di].tT = ti
		m.steps[di].tF = ti
	case *cfsm.MemReadStmt:
		sy.emitStep(step{kind: stepMemRead, vr: s.Var, expr: s.Addr})
	case *cfsm.MemWriteStmt:
		sy.emitStep(step{kind: stepMemWrite, expr: s.Addr, val: s.Val})
	default:
		sy.fail("unsupported statement %T", s)
	}
}

// Rebind returns a copy of the synthesized module bound to a different
// machine instance — typically a clone of the machine it was synthesized
// from (see cfsm.CFSM.Clone). The netlist, micro-program and port maps are
// shared read-only; only the M pointer (which the driver consults for
// pending events and latched input values when it begins a transition)
// changes. m must carry the same specification as the synthesis-time
// machine.
//
// Rebind is what lets one hwsyn.Synthesize serve many concurrent
// simulations: synthesize once, rebind per run. The compiled gate program
// and the port position tables are shared too; each run's Driver allocates
// only the simulator's run state.
func (mod *Module) Rebind(m *cfsm.CFSM) (*Module, error) {
	if m.Name != mod.M.Name || len(m.Transitions) != len(mod.M.Transitions) {
		return nil, fmt.Errorf("hwsyn: rebind machine is %q, module has %q", m.Name, mod.M.Name)
	}
	out := *mod
	out.M = m
	return &out, nil
}
