package hwsyn

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/gate"
)

// ModuleState is the serializable form of a synthesized Module: the netlist,
// port bindings and micro-program entry table — everything the driver
// consults at simulation time — plus the machine identity
// (name, transition count) validated at restore. The private micro-step
// list is deliberately absent: it is consumed during netlist construction
// and never read again, so a restored module is simulation-equivalent
// without it.
type ModuleState struct {
	Name        string
	Transitions int

	N     gate.NetlistState
	Width int

	Go        gate.NetID
	TransSel  gate.Word
	InVals    []gate.Word
	InPresent []gate.NetID
	MemRData  gate.Word
	MemAck    gate.NetID

	Done       gate.NetID
	OutPresent []gate.NetID
	OutVals    []gate.Word
	MemReq     gate.NetID
	MemWr      gate.NetID
	MemAddr    gate.Word
	MemWData   gate.Word

	Upc     gate.Word
	VarRegs []gate.Word

	Entries []int
}

// State exports the module for serialization.
func (mod *Module) State() ModuleState {
	return ModuleState{
		Name:        mod.M.Name,
		Transitions: len(mod.M.Transitions),
		N:           mod.N.State(),
		Width:       mod.Width,
		Go:          mod.Go,
		TransSel:    mod.TransSel,
		InVals:      mod.InVals,
		InPresent:   mod.InPresent,
		MemRData:    mod.MemRData,
		MemAck:      mod.MemAck,
		Done:        mod.Done,
		OutPresent:  mod.OutPresent,
		OutVals:     mod.OutVals,
		MemReq:      mod.MemReq,
		MemWr:       mod.MemWr,
		MemAddr:     mod.MemAddr,
		MemWData:    mod.MemWData,
		Upc:         mod.Upc,
		VarRegs:     mod.VarRegs,
		Entries:     mod.entries,
	}
}

// ModuleFromState rebuilds a module from its exported state, bound to the
// live machine instance m. No synthesis happens, but the netlist is compiled
// (see gate.Compile), so a state that could not be simulated — a corrupt
// netlist, a port the netlist lacks, or port lists that do not match the
// machine — is rejected here rather than at its first run.
func ModuleFromState(st ModuleState, m *cfsm.CFSM) (*Module, error) {
	if m.Name != st.Name {
		return nil, fmt.Errorf("hwsyn: snapshot module is %q, restored machine is %q", st.Name, m.Name)
	}
	if len(m.Transitions) != st.Transitions || len(st.Entries) != st.Transitions {
		return nil, fmt.Errorf("hwsyn: snapshot module %q has %d transitions (%d entry steps), restored machine has %d",
			st.Name, st.Transitions, len(st.Entries), len(m.Transitions))
	}
	if st.Width <= 0 || st.Width > 32 {
		return nil, fmt.Errorf("hwsyn: snapshot module %q: bad width %d", st.Name, st.Width)
	}
	if len(st.InVals) != len(m.InputNames) || len(st.InPresent) != len(m.InputNames) ||
		len(st.OutVals) != len(m.OutputNames) || len(st.OutPresent) != len(m.OutputNames) ||
		len(st.VarRegs) != len(m.VarNames) {
		return nil, fmt.Errorf("hwsyn: snapshot module %q: port lists do not match the machine's %d inputs, %d outputs and %d variables",
			st.Name, len(m.InputNames), len(m.OutputNames), len(m.VarNames))
	}
	mod := &Module{
		M:          m,
		N:          gate.NetlistFromState(st.N),
		Width:      st.Width,
		Go:         st.Go,
		TransSel:   st.TransSel,
		InVals:     st.InVals,
		InPresent:  st.InPresent,
		MemRData:   st.MemRData,
		MemAck:     st.MemAck,
		Done:       st.Done,
		OutPresent: st.OutPresent,
		OutVals:    st.OutVals,
		MemReq:     st.MemReq,
		MemWr:      st.MemWr,
		MemAddr:    st.MemAddr,
		MemWData:   st.MemWData,
		Upc:        st.Upc,
		VarRegs:    st.VarRegs,
		entries:    st.Entries,
	}
	if err := mod.compile(); err != nil {
		return nil, err
	}
	return mod, nil
}
