// Package gate implements the gate-level hardware substrate that stands in
// for the paper's modified SIS power estimator: structural netlists of
// primitive gates and D flip-flops, a levelized cycle-based simulator, and a
// toggle-count power model (E = ½·C·Vdd² per output transition) that reports
// energy cycle by cycle, as the co-estimation master requires.
package gate

import (
	"fmt"

	"repro/internal/units"
)

// NetID identifies one net (wire) in a netlist.
type NetID int32

// Kind is a primitive gate function.
type Kind uint8

// The gate library.
const (
	And Kind = iota
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf

	NumKinds
)

var kindNames = [NumKinds]string{"and", "or", "nand", "nor", "xor", "xnor", "not", "buf"}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "gate?"
}

// Gate is one primitive gate instance.
type Gate struct {
	Kind Kind
	Ins  []NetID
	Out  NetID
}

// Eval computes the gate function over the input values.
func (g Gate) Eval(val []bool) bool {
	switch g.Kind {
	case And, Nand:
		r := true
		for _, in := range g.Ins {
			r = r && val[in]
		}
		if g.Kind == Nand {
			return !r
		}
		return r
	case Or, Nor:
		r := false
		for _, in := range g.Ins {
			r = r || val[in]
		}
		if g.Kind == Nor {
			return !r
		}
		return r
	case Xor, Xnor:
		r := false
		for _, in := range g.Ins {
			r = r != val[in]
		}
		if g.Kind == Xnor {
			return !r
		}
		return r
	case Not:
		return !val[g.Ins[0]]
	case Buf:
		return val[g.Ins[0]]
	}
	panic("gate: bad kind")
}

// DFF is one positive-edge D flip-flop.
type DFF struct {
	D    NetID
	Q    NetID
	Init bool
}

// Netlist is a structural gate-level circuit: nets, gates, flops, and the
// primary input/output bindings. Build one with NewNetlist and the Builder
// methods, then simulate it with NewSim.
type Netlist struct {
	Name     string
	netNames []string
	Gates    []Gate
	DFFs     []DFF
	Inputs   []NetID
	Outputs  []NetID

	constZero NetID    // lazily created constant-0 net
	constOne  NetID    // lazily created constant-1 net
	driven    []uint64 // per net, one bit: driven yet (the double-drive guard)
}

// NewNetlist returns an empty netlist.
func NewNetlist(name string) *Netlist {
	n := &Netlist{Name: name, constZero: -1, constOne: -1}
	return n
}

// isDriven reports whether something drives net id.
func (n *Netlist) isDriven(id NetID) bool { return n.driven[uint32(id)>>6]>>(uint32(id)&63)&1 == 1 }

// setDriven records whether something drives net id.
func (n *Netlist) setDriven(id NetID, v bool) { setBit(n.driven, id, v) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.netNames) }

// NetName returns the name of net id.
func (n *Netlist) NetName(id NetID) string { return n.netNames[id] }

// Net creates a new internal net.
func (n *Netlist) Net(name string) NetID {
	n.netNames = append(n.netNames, name)
	if len(n.netNames) > 64*len(n.driven) {
		n.driven = append(n.driven, 0)
	}
	return NetID(len(n.netNames) - 1)
}

// Input creates a primary-input net.
func (n *Netlist) Input(name string) NetID {
	id := n.Net(name)
	n.Inputs = append(n.Inputs, id)
	n.setDriven(id, true)
	return id
}

// MarkOutput declares an existing net as a primary output.
func (n *Netlist) MarkOutput(id NetID) { n.Outputs = append(n.Outputs, id) }

func (n *Netlist) addGate(k Kind, out NetID, ins ...NetID) NetID {
	if n.isDriven(out) {
		panic(fmt.Sprintf("gate: net %q driven twice", n.netNames[out]))
	}
	n.setDriven(out, true)
	n.Gates = append(n.Gates, Gate{Kind: k, Ins: ins, Out: out})
	return out
}

// GateInto instantiates a gate of kind k driving an existing net.
func (n *Netlist) GateInto(k Kind, out NetID, ins ...NetID) NetID {
	return n.addGate(k, out, ins...)
}

// NewGate instantiates a gate of kind k driving a fresh net.
func (n *Netlist) NewGate(k Kind, ins ...NetID) NetID {
	out := n.Net(fmt.Sprintf("%v_%d", k, len(n.Gates)))
	return n.addGate(k, out, ins...)
}

// And2 returns a AND b. Similar helpers exist for the other functions.
func (n *Netlist) And2(a, b NetID) NetID  { return n.NewGate(And, a, b) }
func (n *Netlist) Or2(a, b NetID) NetID   { return n.NewGate(Or, a, b) }
func (n *Netlist) Xor2(a, b NetID) NetID  { return n.NewGate(Xor, a, b) }
func (n *Netlist) Nand2(a, b NetID) NetID { return n.NewGate(Nand, a, b) }
func (n *Netlist) Nor2(a, b NetID) NetID  { return n.NewGate(Nor, a, b) }
func (n *Netlist) Inv(a NetID) NetID      { return n.NewGate(Not, a) }

// Mux returns sel ? a : b built from primitive gates.
func (n *Netlist) Mux(sel, a, b NetID) NetID {
	ns := n.Inv(sel)
	return n.Or2(n.And2(sel, a), n.And2(ns, b))
}

// Const returns a constant net (a buffered self-consistent constant driven
// by a tied gate; zero = AND of an input-free... represented as a dedicated
// net evaluated by kind).
func (n *Netlist) Const(v bool) NetID {
	if v {
		if n.constOne < 0 {
			id := n.Net("const1")
			zero := n.Const(false)
			n.setDriven(id, true)
			n.Gates = append(n.Gates, Gate{Kind: Not, Ins: []NetID{zero}, Out: id})
			n.constOne = id
		}
		return n.constOne
	}
	if n.constZero < 0 {
		id := n.Net("const0")
		// An XOR of a net with itself is always 0; feed it from the first
		// input if any, else make it a self-standing settled net. We model
		// it as a 0-input OR, which Eval treats as false.
		n.setDriven(id, true)
		n.Gates = append(n.Gates, Gate{Kind: Or, Ins: nil, Out: id})
		n.constZero = id
	}
	return n.constZero
}

// Flop adds a D flip-flop with the given initial value and returns its Q net.
func (n *Netlist) Flop(d NetID, init bool, name string) NetID {
	q := n.Net(name)
	n.setDriven(q, true)
	n.DFFs = append(n.DFFs, DFF{D: d, Q: q, Init: init})
	return q
}

// Word is a little-endian vector of nets (bit 0 first).
type Word []NetID

// InputWord creates a w-bit primary-input bus.
func (n *Netlist) InputWord(name string, w int) Word {
	ws := make(Word, w)
	for i := range ws {
		ws[i] = n.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return ws
}

// ConstWord returns a w-bit constant bus holding v.
func (n *Netlist) ConstWord(v uint64, w int) Word {
	ws := make(Word, w)
	for i := range ws {
		ws[i] = n.Const(v>>uint(i)&1 == 1)
	}
	return ws
}

// RegWord adds a w-bit register with enable: when en is 1 the register loads
// d at the clock edge, otherwise it holds. Returns the Q bus.
func (n *Netlist) RegWord(d Word, en NetID, init uint64, name string) Word {
	q := make(Word, len(d))
	// Build Q first so the hold path can reference it: allocate flops with
	// placeholder D nets, then wire D = mux(en, d, q).
	dn := make(Word, len(d))
	for i := range d {
		dn[i] = n.Net(fmt.Sprintf("%s_d[%d]", name, i)) // driven by the mux below
		q[i] = n.Net(fmt.Sprintf("%s[%d]", name, i))
		n.setDriven(q[i], true)
		n.DFFs = append(n.DFFs, DFF{D: dn[i], Q: q[i], Init: init>>uint(i)&1 == 1})
	}
	for i := range d {
		sel := n.And2(en, d[i])
		hold := n.And2(n.Inv(en), q[i])
		n.GateInto(Or, dn[i], sel, hold)
	}
	return q
}

// AddWord returns a ripple-carry adder sum of a and b (equal widths) plus
// the carry-out net.
func (n *Netlist) AddWord(a, b Word) (Word, NetID) {
	if len(a) != len(b) {
		panic("gate: adder width mismatch")
	}
	sum := make(Word, len(a))
	carry := n.Const(false)
	for i := range a {
		axb := n.Xor2(a[i], b[i])
		sum[i] = n.Xor2(axb, carry)
		carry = n.Or2(n.And2(a[i], b[i]), n.And2(axb, carry))
	}
	return sum, carry
}

// IncWord returns a + 1 (width preserved, carry dropped).
func (n *Netlist) IncWord(a Word) Word {
	out := make(Word, len(a))
	carry := n.Const(true)
	for i := range a {
		out[i] = n.Xor2(a[i], carry)
		carry = n.And2(a[i], carry)
	}
	return out
}

// SubWord returns a - b via two's complement (a + ^b + 1) and a "no borrow"
// flag (carry-out, i.e. 1 when a >= b unsigned).
func (n *Netlist) SubWord(a, b Word) (Word, NetID) {
	if len(a) != len(b) {
		panic("gate: subtractor width mismatch")
	}
	diff := make(Word, len(a))
	carry := n.Const(true)
	for i := range a {
		nb := n.Inv(b[i])
		axb := n.Xor2(a[i], nb)
		diff[i] = n.Xor2(axb, carry)
		carry = n.Or2(n.And2(a[i], nb), n.And2(axb, carry))
	}
	return diff, carry
}

// EqWord returns 1 when a == b.
func (n *Netlist) EqWord(a, b Word) NetID {
	if len(a) != len(b) {
		panic("gate: comparator width mismatch")
	}
	r := n.Const(true)
	for i := range a {
		r = n.And2(r, n.Xor2(n.Xor2(a[i], b[i]), n.Const(true)))
	}
	return r
}

// IsZero returns 1 when every bit of a is 0.
func (n *Netlist) IsZero(a Word) NetID {
	r := n.Const(true)
	for i := range a {
		r = n.And2(r, n.Inv(a[i]))
	}
	return r
}

// MuxWord returns sel ? a : b bitwise.
func (n *Netlist) MuxWord(sel NetID, a, b Word) Word {
	if len(a) != len(b) {
		panic("gate: mux width mismatch")
	}
	out := make(Word, len(a))
	for i := range a {
		out[i] = n.Mux(sel, a[i], b[i])
	}
	return out
}

// XorWord returns a ^ b bitwise.
func (n *Netlist) XorWord(a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = n.Xor2(a[i], b[i])
	}
	return out
}

// AndWord returns a & b bitwise.
func (n *Netlist) AndWord(a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = n.And2(a[i], b[i])
	}
	return out
}

// Stats summarizes netlist size for reports.
type Stats struct {
	Nets  int
	Gates int
	DFFs  int
}

// Size returns the netlist statistics.
func (n *Netlist) Size() Stats {
	return Stats{Nets: n.NumNets(), Gates: len(n.Gates), DFFs: len(n.DFFs)}
}

// Power configuration defaults for the simulator.
const (
	// DefaultWireCap is the intrinsic capacitance of one net.
	DefaultWireCap = 8 * units.Femtofarad
	// DefaultInputCap is the gate-input load added per fanout.
	DefaultInputCap = 4 * units.Femtofarad
	// DefaultClockCap is the per-flop clock-pin load switched every cycle.
	DefaultClockCap = 6 * units.Femtofarad
)
