package cfsm

import (
	"fmt"
	"sort"
)

// Net is a network of CFSMs plus the event wiring between them: each
// (machine, output port) fans out to any number of (machine, input port)
// destinations, and environment inputs/outputs cross the system boundary.
// The network is purely structural; delivery timing is owned by the
// co-estimation master (internal/core), which is what makes the behavioral
// model timing-sensitive.
type Net struct {
	Machines []*CFSM

	// wires[machineIdx][outPort] lists the destinations of that output.
	wires map[int]map[int][]Dest

	// envIn maps environment input names to their destinations.
	envIn map[string][]Dest

	// envOut maps (machineIdx, outPort) to environment output names.
	envOut map[int]map[int][]string
}

// Dest identifies one input port of one machine in the network.
type Dest struct {
	Machine int
	Port    int
}

// NewNet returns an empty network.
func NewNet() *Net {
	return &Net{
		wires:  make(map[int]map[int][]Dest),
		envIn:  make(map[string][]Dest),
		envOut: make(map[int]map[int][]string),
	}
}

// Add registers a machine and returns its index.
func (n *Net) Add(c *CFSM) int {
	n.Machines = append(n.Machines, c)
	return len(n.Machines) - 1
}

// MachineIndex returns the index of the named machine, or -1.
func (n *Net) MachineIndex(name string) int {
	for i, m := range n.Machines {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Connect wires output port out of machine src to input port in of machine
// dst. It panics on bad indices: wiring errors are construction-time bugs.
func (n *Net) Connect(src, out, dst, in int) {
	n.check(src, "source")
	n.check(dst, "destination")
	if out < 0 || out >= len(n.Machines[src].OutputNames) {
		panic(fmt.Sprintf("cfsm: machine %q has no output %d", n.Machines[src].Name, out))
	}
	if in < 0 || in >= len(n.Machines[dst].InputNames) {
		panic(fmt.Sprintf("cfsm: machine %q has no input %d", n.Machines[dst].Name, in))
	}
	m := n.wires[src]
	if m == nil {
		m = make(map[int][]Dest)
		n.wires[src] = m
	}
	m[out] = append(m[out], Dest{Machine: dst, Port: in})
}

// ConnectByName wires srcMachine.outName to dstMachine.inName.
func (n *Net) ConnectByName(srcMachine, outName, dstMachine, inName string) {
	src := n.MachineIndex(srcMachine)
	dst := n.MachineIndex(dstMachine)
	if src < 0 || dst < 0 {
		panic(fmt.Sprintf("cfsm: unknown machine in connect %s.%s -> %s.%s",
			srcMachine, outName, dstMachine, inName))
	}
	out := n.Machines[src].OutputIndex(outName)
	in := n.Machines[dst].InputIndex(inName)
	if out < 0 || in < 0 {
		panic(fmt.Sprintf("cfsm: unknown port in connect %s.%s -> %s.%s",
			srcMachine, outName, dstMachine, inName))
	}
	n.Connect(src, out, dst, in)
}

// EnvInput declares a named environment input feeding machine dst, port in.
func (n *Net) EnvInput(name string, dst, in int) {
	n.check(dst, "destination")
	n.envIn[name] = append(n.envIn[name], Dest{Machine: dst, Port: in})
}

// EnvInputByName declares a named environment input by machine/port name.
func (n *Net) EnvInputByName(name, dstMachine, inName string) {
	dst := n.MachineIndex(dstMachine)
	if dst < 0 {
		panic(fmt.Sprintf("cfsm: unknown machine %q", dstMachine))
	}
	in := n.Machines[dst].InputIndex(inName)
	if in < 0 {
		panic(fmt.Sprintf("cfsm: machine %q has no input %q", dstMachine, inName))
	}
	n.EnvInput(name, dst, in)
}

// EnvOutput declares that output port out of machine src is observable from
// the environment under the given name.
func (n *Net) EnvOutput(name string, src, out int) {
	n.check(src, "source")
	m := n.envOut[src]
	if m == nil {
		m = make(map[int][]string)
		n.envOut[src] = m
	}
	m[out] = append(m[out], name)
}

// Fanout returns the destinations of output port out of machine src.
func (n *Net) Fanout(src, out int) []Dest {
	return n.wires[src][out]
}

// EnvDest returns the destinations of the named environment input.
func (n *Net) EnvDest(name string) []Dest {
	return n.envIn[name]
}

// EnvInputs returns the names of the environment inputs, sorted.
func (n *Net) EnvInputs() []string {
	names := make([]string, 0, len(n.envIn))
	for name := range n.envIn {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EnvNames returns the environment-output names bound to (src, out).
func (n *Net) EnvNames(src, out int) []string {
	return n.envOut[src][out]
}

// Reset resets every machine in the network.
func (n *Net) Reset() {
	for _, m := range n.Machines {
		m.Reset()
	}
}

func (n *Net) check(i int, role string) {
	if i < 0 || i >= len(n.Machines) {
		panic(fmt.Sprintf("cfsm: bad %s machine index %d", role, i))
	}
}
