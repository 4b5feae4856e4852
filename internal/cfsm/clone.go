package cfsm

// Clone returns an independent runtime copy of the machine: the immutable
// specification (names, initial values, transitions) is shared, while the
// runtime state (current state, variable values, pending input events) is
// copied. Cloning an in-flight machine captures its state at that instant;
// cloning a freshly Reset machine yields a machine ready for a fresh run.
// The clone shares none of the reaction buffers (see Reaction): its first
// reaction allocates its own, and the original's last Reaction stays as
// it was.
//
// The specification slices must not be mutated after construction — that is
// already the package-wide contract (the synthesizers and the simulation
// master treat them as read-only), and Clone leans on it to make concurrent
// simulations of cloned machines race-free.
func (c *CFSM) Clone() *CFSM {
	out := *c
	out.vars = append([]Value(nil), c.vars...)
	out.inputs = append([]inputState(nil), c.inputs...)
	out.last = Reaction{}
	out.guardOps = nil
	return &out
}

// Clone returns an independent runtime copy of the network: every machine is
// cloned (see CFSM.Clone) while the wiring — structural and read-only after
// construction — is shared. Two cloned networks can be simulated
// concurrently without synchronization.
func (n *Net) Clone() *Net {
	out := &Net{
		Machines: make([]*CFSM, len(n.Machines)),
		wires:    n.wires,
		envIn:    n.envIn,
		envOut:   n.envOut,
	}
	for i, m := range n.Machines {
		out.Machines[i] = m.Clone()
	}
	return out
}
