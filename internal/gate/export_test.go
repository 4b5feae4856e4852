package gate

// NetlistState is a Netlist with every structural field exported, so the
// tests of Compile can encode a synthesized netlist, damage it field by
// field, and hand the result to Compile. NetIDs are dense indices, which
// makes the representation position-stable: a netlist rebuilt from its
// state simulates gate-for-gate identically.
type NetlistState struct {
	Name      string
	NetNames  []string
	Gates     []Gate
	DFFs      []DFF
	Inputs    []NetID
	Outputs   []NetID
	ConstZero NetID
	ConstOne  NetID
}

// State exports the netlist. The netlist must not be mutated while the
// state (which shares slices) is in use.
func (n *Netlist) State() NetlistState {
	return NetlistState{
		Name:      n.Name,
		NetNames:  n.netNames,
		Gates:     n.Gates,
		DFFs:      n.DFFs,
		Inputs:    n.Inputs,
		Outputs:   n.Outputs,
		ConstZero: n.constZero,
		ConstOne:  n.constOne,
	}
}

// NetlistFromState rebuilds a netlist from its exported state. The driven
// map (a build-time double-driver guard) is reconstructed, so the rebuilt
// netlist supports further building as well as simulation.
func NetlistFromState(s NetlistState) *Netlist {
	n := &Netlist{
		Name:      s.Name,
		netNames:  s.NetNames,
		Gates:     s.Gates,
		DFFs:      s.DFFs,
		Inputs:    s.Inputs,
		Outputs:   s.Outputs,
		constZero: s.ConstZero,
		constOne:  s.ConstOne,
		driven:    make(map[NetID]bool, len(s.NetNames)),
	}
	if n.constZero == 0 && n.constOne == 0 {
		// Zero-value state (e.g. a decoded empty netlist): keep the
		// NewNetlist convention of "not yet created".
		n.constZero, n.constOne = -1, -1
	}
	for _, id := range n.Inputs {
		n.driven[id] = true
	}
	for _, g := range n.Gates {
		n.driven[g.Out] = true
	}
	for _, ff := range n.DFFs {
		n.driven[ff.Q] = true
	}
	return n
}
