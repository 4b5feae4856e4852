package gate

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide gate-simulator metrics. Cycles and evaluations are batched
// once per simulated cycle so the settle loop stays atomics-free.
var (
	mCycles   = telemetry.Default.Counter("coest_gate_cycles_total", "gate-level clock cycles simulated")
	mEvals    = telemetry.Default.Counter("coest_gate_evals_total", "gate evaluations performed")
	mCompiles = telemetry.Default.Counter("coest_gate_compiles_total", "gate netlists compiled for simulation")
)

// Program is a netlist compiled for simulation: the levelized evaluation
// order, the CSR fanout, the packed gate records, the per-net capacitances
// and the settled power-on state. Compile builds it once per netlist. It is
// read-only afterwards, so any number of Sims, on any goroutines, can run
// from one Program; each owns only its run state.
type Program struct {
	n     *Netlist
	order []int // gate evaluation order (indices into n.Gates)

	// Activity-driven evaluation: only gates whose inputs changed are
	// re-evaluated, level by level (same fixpoint as full evaluation).
	// Dirtiness is one bit per gate grouped by level in a single flat
	// bitset, so whole words of clean gates are skipped; every hot-path
	// lookup (dirty target, input bit) is precomputed into parallel flat
	// arrays here.
	levelGates [][]int32           // gate indices per level, in topo order
	levelOff   []int32             // level -> first word in a Sim's dirtyBits
	fanOff     []int32             // net -> [fanOff[n], fanOff[n+1]) fanout edges
	fanIdx     []uint32            // edge -> global bit index into dirtyBits
	hot        []hotGate           // gate -> packed hot-path record
	insFlat    []NetID             // flattened gate inputs (N-ary fallback only)
	dNets      []NetID             // flop -> D net, for the capture gather
	cap_       []units.Capacitance // effective cap per net

	// Power-on state, which Reset copies: every flop at its Init value and
	// the combinational logic settled, with qVal0 and nextQ0 laid out as a
	// Sim's qVal and nextQ.
	val0, qVal0, nextQ0 []uint64
}

// Sim is one run of a Program: a levelized cycle-based simulator with
// toggle-count power estimation. One Cycle call = one clock period: apply
// primary inputs, settle combinational logic, charge ½·C·Vdd² per net
// transition, then capture flip-flop state for the next cycle.
//
// Net values are bit-packed 64 to a word, gate dependencies are flattened
// into CSR arrays, and dirty work is tracked in per-level bitsets, so the
// settle loop skips 64 clean gates per word and a steady-state Cycle
// performs no allocations. Evaluation order within a level is ascending
// position — identical to the historical per-gate sweep — so energies stay
// bit-identical.
type Sim struct {
	N   *Netlist
	Vdd units.Voltage

	p       *Program
	swE     []units.Energy // net -> SwitchEnergy(cap_[net], Vdd, 1)
	val     []uint64       // current net values, 64 nets per word
	toggles []uint64
	cycles  uint64
	energy  units.Energy
	history []units.Energy // per-cycle energy, if recording
	record  bool
	evals   uint64

	// Flop state, bit-packed by flop index. qVal mirrors the Q-net bits of
	// val (launch diffs whole words against nextQ).
	qVal  []uint64
	nextQ []uint64

	dirtyBits []uint64 // concatenated per-level dirty bitsets

	// forced is set by ForceFlop and cleared by the next Cycle: until then
	// gates may be pending re-evaluation and a forced next state need not
	// be the one the D nets would capture, so the state is not steady.
	forced bool
}

// hotGate is everything the settle loop needs about one gate, packed into
// 16 bytes so an evaluation touches a single cache line of metadata. For
// 1- and 2-input gates a/b are the input nets (b mirrors a when unary);
// for wider gates a/b are the [a,b) range in insFlat.
type hotGate struct {
	op  uint8
	out NetID
	a   int32
	b   int32
}

// NewSim compiles the netlist and returns a simulator for it.
func NewSim(n *Netlist, vdd units.Voltage) (*Sim, error) {
	p, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return p.NewSim(vdd), nil
}

// Compile levelizes the netlist and settles its power-on state. It returns
// an error, never a panic, for any netlist it cannot simulate: a net ID out
// of range, an unknown gate kind, a Not or Buf gate without exactly one
// input, a net with more than one driver (gate, flop or primary input), a
// net read but never driven, or a combinational cycle. The netlist must not
// change afterwards: the Program refers to it.
func Compile(n *Netlist) (*Program, error) {
	nn := n.NumNets()
	inRange := func(what string, ids ...NetID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= nn {
				return fmt.Errorf("gate: netlist %q: %s net %d out of range (%d nets)", n.Name, what, id, nn)
			}
		}
		return nil
	}
	for gi, g := range n.Gates {
		if g.Kind >= NumKinds {
			return nil, fmt.Errorf("gate: netlist %q: gate %d has unknown kind %d", n.Name, gi, g.Kind)
		}
		if (g.Kind == Not || g.Kind == Buf) && len(g.Ins) != 1 {
			return nil, fmt.Errorf("gate: netlist %q: %v gate %d has %d inputs, want 1", n.Name, g.Kind, gi, len(g.Ins))
		}
		if err := inRange("gate output", g.Out); err != nil {
			return nil, err
		}
		if err := inRange("gate input", g.Ins...); err != nil {
			return nil, err
		}
	}
	for _, ff := range n.DFFs {
		if err := inRange("flop", ff.D, ff.Q); err != nil {
			return nil, err
		}
	}
	if err := inRange("primary input", n.Inputs...); err != nil {
		return nil, err
	}
	if err := inRange("primary output", n.Outputs...); err != nil {
		return nil, err
	}

	// What drives each net: a gate index, or a source (primary input or
	// flop output) that the combinational logic only reads.
	const undriven, source = -1, -2
	driver := make([]int, nn)
	for i := range driver {
		driver[i] = undriven
	}
	drive := func(id NetID, by int) error {
		if driver[id] != undriven {
			return fmt.Errorf("gate: net %q multiply driven", n.NetName(id))
		}
		driver[id] = by
		return nil
	}
	for _, id := range n.Inputs {
		if err := drive(id, source); err != nil {
			return nil, err
		}
	}
	for _, ff := range n.DFFs {
		if err := drive(ff.Q, source); err != nil {
			return nil, err
		}
	}
	for gi, g := range n.Gates {
		if err := drive(g.Out, gi); err != nil {
			return nil, err
		}
	}

	// Kahn topological sort over gates.
	indeg := make([]int, len(n.Gates))
	succ := make([][]int32, len(n.Gates))
	for gi, g := range n.Gates {
		for _, in := range g.Ins {
			d := driver[in]
			if d == source {
				continue
			}
			if d == undriven {
				return nil, fmt.Errorf("gate: net %q read but never driven", n.NetName(in))
			}
			indeg[gi]++
			succ[d] = append(succ[d], int32(gi))
		}
	}
	queue := make([]int, 0, len(n.Gates))
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, gi)
		}
	}
	order := make([]int, 0, len(n.Gates))
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, nx := range succ[gi] {
			indeg[nx]--
			if indeg[nx] == 0 {
				queue = append(queue, int(nx))
			}
		}
	}
	if len(order) != len(n.Gates) {
		return nil, fmt.Errorf("gate: combinational cycle in netlist %q", n.Name)
	}
	p := &Program{n: n, order: order}

	// Levelize for activity-driven evaluation.
	level := make([]int, len(n.Gates))
	maxLevel := 0
	for _, gi := range order {
		lv := 0
		for _, in := range n.Gates[gi].Ins {
			if d := driver[in]; d >= 0 {
				if level[d]+1 > lv {
					lv = level[d] + 1
				}
			}
		}
		level[gi] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	p.levelGates = make([][]int32, maxLevel+1)
	for _, gi := range order {
		p.levelGates[level[gi]] = append(p.levelGates[level[gi]], int32(gi))
	}
	// Each gate's dirty bit lives at (levelOff[level] words + position in
	// level); precompute that address per gate for the fanout edges below.
	p.levelOff = make([]int32, maxLevel+2)
	for lv, gates := range p.levelGates {
		p.levelOff[lv+1] = p.levelOff[lv] + int32((len(gates)+63)/64)
	}
	dirtyIdx := make([]uint32, len(n.Gates))
	for lv, gates := range p.levelGates {
		for pos, gi := range gates {
			dirtyIdx[gi] = uint32(p.levelOff[lv])<<6 + uint32(pos)
		}
	}

	// CSR fanout: per edge, the global dirty-bit index of the dependent
	// gate (4 bytes per edge keeps the fanout walk cache-dense).
	p.fanOff = make([]int32, nn+1)
	for _, g := range n.Gates {
		for _, in := range g.Ins {
			p.fanOff[in+1]++
		}
	}
	for i := 1; i < len(p.fanOff); i++ {
		p.fanOff[i] += p.fanOff[i-1]
	}
	p.fanIdx = make([]uint32, p.fanOff[len(p.fanOff)-1])
	fill := make([]int32, nn)
	for gi, g := range n.Gates {
		for _, in := range g.Ins {
			p.fanIdx[p.fanOff[in]+fill[in]] = dirtyIdx[gi]
			fill[in]++
		}
	}
	// Packed per-gate hot records; wide gates spill inputs to insFlat.
	p.hot = make([]hotGate, len(n.Gates))
	for gi, g := range n.Gates {
		h := hotGate{op: specializeOp(g.Kind, len(g.Ins)), out: g.Out}
		switch {
		case h.op == opNot || h.op == opBuf:
			h.a, h.b = int32(g.Ins[0]), int32(g.Ins[0])
		case h.op < opNot: // 2-input specialized forms
			h.a, h.b = int32(g.Ins[0]), int32(g.Ins[1])
		default: // N-ary fallback: a/b index insFlat
			h.a = int32(len(p.insFlat))
			p.insFlat = append(p.insFlat, g.Ins...)
			h.b = int32(len(p.insFlat))
		}
		p.hot[gi] = h
	}

	p.dNets = make([]NetID, len(n.DFFs))
	for i, ff := range n.DFFs {
		p.dNets[i] = ff.D
	}

	// Effective capacitance: intrinsic wire cap + input load per fanout.
	p.cap_ = make([]units.Capacitance, nn)
	for i := range p.cap_ {
		p.cap_[i] = DefaultWireCap
	}
	for _, g := range n.Gates {
		for _, in := range g.Ins {
			p.cap_[in] += DefaultInputCap
		}
	}
	for _, ff := range n.DFFs {
		p.cap_[ff.D] += DefaultInputCap
	}

	// Power-on state: flops at their initial values, then one settle of
	// the combinational logic in evaluation order, charging no energy —
	// power-on state is not switching activity.
	p.val0 = make([]uint64, (nn+63)/64)
	p.qVal0 = make([]uint64, (len(n.DFFs)+63)/64)
	p.nextQ0 = make([]uint64, len(p.qVal0))
	for i, ff := range n.DFFs {
		if ff.Init {
			setBit(p.val0, ff.Q, true)
			p.qVal0[uint32(i)>>6] |= 1 << (uint32(i) & 63)
		}
	}
	for _, gi := range order {
		setBit(p.val0, n.Gates[gi].Out, p.evalGate(p.val0, int32(gi)))
	}
	p.capture(p.nextQ0, p.val0)

	mCompiles.Inc()
	return p, nil
}

// NewSim returns a simulator for the program at supply voltage vdd, in the
// power-on state. It allocates only run state; the per-net switch energy
// is part of it because it depends on vdd.
func (p *Program) NewSim(vdd units.Voltage) *Sim {
	s := &Sim{
		N: p.n, Vdd: vdd, p: p,
		swE:       make([]units.Energy, len(p.cap_)),
		val:       make([]uint64, len(p.val0)),
		toggles:   make([]uint64, len(p.cap_)),
		qVal:      make([]uint64, len(p.qVal0)),
		nextQ:     make([]uint64, len(p.nextQ0)),
		dirtyBits: make([]uint64, p.levelOff[len(p.levelOff)-1]),
	}
	// Per-net single-transition energy, precomputed so the hot loops add a
	// cached float instead of recomputing ½·C·Vdd² (bitwise identical — the
	// inputs never change during a run).
	for i, c := range p.cap_ {
		s.swE[i] = units.SwitchEnergy(c, vdd, 1)
	}
	s.Reset()
	return s
}

// bit returns the current value of net id.
func (s *Sim) bit(id NetID) bool {
	return s.val[uint32(id)>>6]>>(uint32(id)&63)&1 == 1
}

// flip inverts the current value of net id.
func (s *Sim) flip(id NetID) {
	s.val[uint32(id)>>6] ^= 1 << (uint32(id) & 63)
}

// setBit forces net id to v in the packed net values val.
func setBit(val []uint64, id NetID, v bool) {
	if v {
		val[uint32(id)>>6] |= 1 << (uint32(id) & 63)
	} else {
		val[uint32(id)>>6] &^= 1 << (uint32(id) & 63)
	}
}

// evalGate computes gate gi's function over the packed net values val
// (cold path — the power-on settle; the settle loop inlines the same
// dispatch).
func (p *Program) evalGate(val []uint64, gi int32) bool {
	h := p.hot[gi]
	va := val[uint32(h.a)>>6] >> (uint32(h.a) & 63)
	switch h.op {
	case opAnd2:
		return va&(val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 != 0
	case opNand2:
		return va&(val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 == 0
	case opOr2:
		return (va|val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 != 0
	case opNor2:
		return (va|val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 == 0
	case opXor2:
		return (va^val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 != 0
	case opXnor2:
		return (va^val[uint32(h.b)>>6]>>(uint32(h.b)&63))&1 == 0
	case opNot:
		return va&1 == 0
	case opBuf:
		return va&1 != 0
	case opAndN, opNandN:
		r := true
		for _, in := range p.insFlat[h.a:h.b] {
			if val[uint32(in)>>6]>>(uint32(in)&63)&1 == 0 {
				r = false
				break
			}
		}
		return r != (h.op == opNandN)
	case opOrN, opNorN:
		r := false
		for _, in := range p.insFlat[h.a:h.b] {
			if val[uint32(in)>>6]>>(uint32(in)&63)&1 != 0 {
				r = true
				break
			}
		}
		return r != (h.op == opNorN)
	default: // opXorN, opXnorN
		r := false
		for _, in := range p.insFlat[h.a:h.b] {
			r = r != (val[uint32(in)>>6]>>(uint32(in)&63)&1 != 0)
		}
		return r != (h.op == opXnorN)
	}
}

// Specialized eval opcodes: the settle loop dispatches on these instead of
// (Kind, fan-in) pairs so the dominant 2-input gates avoid loop overhead.
const (
	opAnd2 = iota
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opNot
	opBuf
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// specializeOp maps a gate kind and fan-in to its settle-loop opcode.
func specializeOp(k Kind, nIns int) uint8 {
	if nIns == 2 {
		switch k {
		case And:
			return opAnd2
		case Nand:
			return opNand2
		case Or:
			return opOr2
		case Nor:
			return opNor2
		case Xor:
			return opXor2
		case Xnor:
			return opXnor2
		}
	}
	switch k {
	case Not:
		return opNot
	case Buf:
		return opBuf
	case And:
		return opAndN
	case Nand:
		return opNandN
	case Or:
		return opOrN
	case Nor:
		return opNorN
	case Xor:
		return opXorN
	case Xnor:
		return opXnorN
	}
	panic("gate: bad kind")
}

// markDirty queues every gate reading net for re-evaluation. Each fanout
// edge carries the dependent gate's global dirty-bit index directly, so
// this is one OR per edge.
func (s *Sim) markDirty(net NetID) {
	p := s.p
	for _, di := range p.fanIdx[p.fanOff[net]:p.fanOff[net+1]] {
		s.dirtyBits[di>>6] |= 1 << (di & 63)
	}
}

// Reset returns the simulator to the program's power-on state: the settled
// net values and flop state are copied, and every count is cleared.
func (s *Sim) Reset() {
	copy(s.val, s.p.val0)
	copy(s.qVal, s.p.qVal0)
	copy(s.nextQ, s.p.nextQ0)
	s.cycles = 0
	s.energy = 0
	s.evals = 0
	s.forced = false
	s.history = s.history[:0]
	clear(s.toggles)
	clear(s.dirtyBits)
}

// capture latches each flop's D value in val into the next-state bitset.
func (p *Program) capture(nextQ, val []uint64) {
	clear(nextQ)
	for i, d := range p.dNets {
		nextQ[uint32(i)>>6] |= (val[uint32(d)>>6] >> (uint32(d) & 63) & 1) << (uint32(i) & 63)
	}
}

// Record enables per-cycle energy history capture (for power waveforms).
func (s *Sim) Record(on bool) { s.record = on }

// InputVector assigns values to the primary inputs in declaration order.
type InputVector []bool

// Cycle simulates one clock period with the given primary-input values and
// returns the energy dissipated in that cycle.
func (s *Sim) Cycle(in InputVector) units.Energy {
	if len(in) != len(s.N.Inputs) {
		panic(fmt.Sprintf("gate: input vector width %d, want %d", len(in), len(s.N.Inputs)))
	}
	evals0 := s.evals
	var e units.Energy

	// Clock edge: flops launch the values captured at the end of the
	// previous cycle; clock pins switch every cycle. Whole words of stable
	// flops are skipped by diffing the packed Q state.
	dffs := s.N.DFFs
	for wi, qw := range s.qVal {
		diff := qw ^ s.nextQ[wi]
		if diff == 0 {
			continue
		}
		for diff != 0 {
			i := wi<<6 + bits.TrailingZeros64(diff)
			diff &= diff - 1
			q := dffs[i].Q
			s.flip(q)
			s.toggles[q]++
			e += s.swE[q]
			s.markDirty(q)
		}
		s.qVal[wi] = s.nextQ[wi]
	}
	e += units.SwitchEnergy(DefaultClockCap, s.Vdd, uint64(len(dffs)))

	// Apply primary inputs.
	for i, id := range s.N.Inputs {
		if s.bit(id) != in[i] {
			s.flip(id)
			s.toggles[id]++
			e += s.swE[id]
			s.markDirty(id)
		}
	}

	// Settle combinational logic: only dirty gates, level by level in
	// ascending position order (same fixpoint and same evaluation order as
	// a full levelized pass). A gate can only dirty gates at higher levels,
	// so each level's bitset is final when its turn comes.
	evals := s.evals
	val := s.val
	p := s.p
	hot, insFlat, levelOff := p.hot, p.insFlat, p.levelOff
	toggles, swE := s.toggles, s.swE
	fanOff, fanIdx, dirtyBits := p.fanOff, p.fanIdx, s.dirtyBits
	for lv, gates := range p.levelGates {
		dirtyLv := dirtyBits[levelOff[lv]:levelOff[lv+1]]
		for wi, w := range dirtyLv {
			if w == 0 {
				continue
			}
			dirtyLv[wi] = 0
			base := wi << 6
			for w != 0 {
				pos := base + bits.TrailingZeros64(w)
				w &= w - 1
				gi := gates[pos]
				evals++

				// Evaluate gate gi over the packed values (manually
				// inlined, branchless for the dominant 1/2-input forms:
				// this is the hottest loop in the co-estimator).
				h := hot[gi]
				va := val[uint32(h.a)>>6] >> (uint32(h.a) & 63)
				var v uint64
				switch h.op {
				case opAnd2:
					v = va & (val[uint32(h.b)>>6] >> (uint32(h.b) & 63)) & 1
				case opNand2:
					v = ^(va & (val[uint32(h.b)>>6] >> (uint32(h.b) & 63))) & 1
				case opOr2:
					v = (va | val[uint32(h.b)>>6]>>(uint32(h.b)&63)) & 1
				case opNor2:
					v = ^(va | val[uint32(h.b)>>6]>>(uint32(h.b)&63)) & 1
				case opXor2:
					v = (va ^ val[uint32(h.b)>>6]>>(uint32(h.b)&63)) & 1
				case opXnor2:
					v = ^(va ^ val[uint32(h.b)>>6]>>(uint32(h.b)&63)) & 1
				case opNot:
					v = ^va & 1
				case opBuf:
					v = va & 1
				case opAndN, opNandN:
					v = 1
					for _, in := range insFlat[h.a:h.b] {
						v &= val[uint32(in)>>6] >> (uint32(in) & 63)
					}
					v &= 1
					if h.op == opNandN {
						v ^= 1
					}
				case opOrN, opNorN:
					v = 0
					for _, in := range insFlat[h.a:h.b] {
						v |= val[uint32(in)>>6] >> (uint32(in) & 63) & 1
					}
					if h.op == opNorN {
						v ^= 1
					}
				default: // opXorN, opXnorN
					v = 0
					for _, in := range insFlat[h.a:h.b] {
						v ^= val[uint32(in)>>6] >> (uint32(in) & 63)
					}
					v &= 1
					if h.op == opXnorN {
						v ^= 1
					}
				}

				out := uint32(h.out)
				if v != val[out>>6]>>(out&63)&1 {
					val[out>>6] ^= 1 << (out & 63)
					toggles[out]++
					e += swE[out]
					for _, di := range fanIdx[fanOff[out]:fanOff[out+1]] {
						dirtyBits[di>>6] |= 1 << (di & 63)
					}
				}
			}
		}
	}
	s.evals = evals

	// Capture next state.
	p.capture(s.nextQ, val)
	s.forced = false

	s.cycles++
	s.energy += e
	if s.record {
		s.history = append(s.history, e)
	}
	mCycles.Inc()
	mEvals.Add(s.evals - evals0)
	return e
}

// Steady reports whether the simulator sits at a fixed point for input
// vector in: every flop's captured next state equals its Q, no forced state
// awaits settling, and every primary input already holds its value in in.
// A Cycle from a steady state launches nothing, applies nothing and settles
// nothing, so it dissipates exactly the clock energy and leaves the state
// steady — which is what lets Advance skip the gate work.
func (s *Sim) Steady(in InputVector) bool {
	if s.forced {
		return false
	}
	for wi, qw := range s.qVal {
		if qw != s.nextQ[wi] {
			return false
		}
	}
	for i, id := range s.N.Inputs {
		if s.bit(id) != in[i] {
			return false
		}
	}
	return true
}

// Advance clocks n cycles through a fixed point without gate work and
// returns the energy of one of them, the clock energy. The caller must
// have checked Steady for the held input vector. Totals, history and
// metrics match n Cycle calls bit for bit: the per-cycle energy is added n
// times in sequence (n·e would round differently), and nets, toggles and
// evaluation counts stay as they are.
func (s *Sim) Advance(n uint64) units.Energy {
	e := units.SwitchEnergy(DefaultClockCap, s.Vdd, uint64(len(s.N.DFFs)))
	for i := uint64(0); i < n; i++ {
		s.energy += e
		if s.record {
			s.history = append(s.history, e)
		}
	}
	s.cycles += n
	mCycles.Add(n)
	return e
}

// Value returns the current value of a net.
func (s *Sim) Value(id NetID) bool { return s.bit(id) }

// ForceFlop overrides the state of flop i — both its visible Q value and
// the captured next-state — without charging switching energy. This is an
// estimator-side state synchronization (used when acceleration techniques
// skip executions and the register state must be re-aligned with the
// behavioral model), not a physical event. The simulator is not Steady
// again until the next Cycle.
func (s *Sim) ForceFlop(i int, v bool) {
	s.forced = true
	ff := s.N.DFFs[i]
	if s.bit(ff.Q) != v {
		s.flip(ff.Q)
		s.qVal[uint32(i)>>6] ^= 1 << (uint32(i) & 63)
		s.markDirty(ff.Q)
	}
	if v {
		s.nextQ[uint32(i)>>6] |= 1 << (uint32(i) & 63)
	} else {
		s.nextQ[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
	}
}

// WordValue returns the current unsigned value of a bus.
func (s *Sim) WordValue(w Word) uint64 {
	var v uint64
	for i, id := range w {
		if s.bit(id) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// SetWord writes a bus value into an input vector (the bus must consist of
// primary inputs; positions are located by identity).
func (s *Sim) SetWord(in InputVector, w Word, v uint64) {
	for i, id := range w {
		for j, pid := range s.N.Inputs {
			if pid == id {
				in[j] = v>>uint(i)&1 == 1
			}
		}
	}
}

// Cycles returns the number of simulated cycles since Reset.
func (s *Sim) Cycles() uint64 { return s.cycles }

// Energy returns the total energy since Reset.
func (s *Sim) Energy() units.Energy { return s.energy }

// History returns the recorded per-cycle energies (empty unless recording).
func (s *Sim) History() []units.Energy { return s.history }

// Toggles returns the transition count of a net since Reset.
func (s *Sim) Toggles(id NetID) uint64 { return s.toggles[id] }

// Evals returns the number of gate evaluations performed since Reset (the
// activity-driven simulator's workload metric).
func (s *Sim) Evals() uint64 { return s.evals }

// TotalToggles returns the total transition count across all nets.
func (s *Sim) TotalToggles() uint64 {
	var t uint64
	for _, n := range s.toggles {
		t += n
	}
	return t
}
