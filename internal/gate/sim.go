package gate

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide gate-simulator metrics, batched once per simulated cycle so
// the settle loop stays atomics-free.
var (
	mCycles = telemetry.Default.Counter("coest_gate_cycles_total", "gate-level clock cycles simulated")
	mEvals  = telemetry.Default.Counter("coest_gate_evals_total", "gate evaluations performed")
)

// Sim is a levelized cycle-based simulator with toggle-count power
// estimation. One Cycle call = one clock period: apply primary inputs,
// settle combinational logic, charge ½·C·Vdd² per net transition, then
// capture flip-flop state for the next cycle.
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

	// WireCap, InputCap and ClockCap configure the capacitance model; they
	// default to the package constants.
	WireCap  units.Capacitance
	InputCap units.Capacitance
	ClockCap units.Capacitance

	order   []int               // gate evaluation order (indices into N.Gates)
	val     []uint64            // current net values, 64 nets per word
	cap_    []units.Capacitance // effective cap per net
	toggles []uint64
	cycles  uint64
	energy  units.Energy
	history []units.Energy // per-cycle energy, if recording
	record  bool

	// Flop state, bit-packed by flop index. qVal mirrors the Q-net bits of
	// val (launch diffs whole words against nextQ); dNets caches the D nets
	// for the capture gather.
	qVal  []uint64
	nextQ []uint64
	dNets []NetID

	// Activity-driven evaluation: only gates whose inputs changed are
	// re-evaluated, level by level (same fixpoint as full evaluation).
	// Dirtiness is one bit per gate grouped by level in a single flat
	// bitset, so whole words of clean gates are skipped; every hot-path
	// lookup (dirty target, input bit, switch energy) is precomputed into
	// parallel flat arrays at construction.
	levelGates [][]int32      // gate indices per level, in topo order
	dirtyBits  []uint64       // concatenated per-level dirty bitsets
	levelOff   []int32        // level -> first word in dirtyBits
	fanOff     []int32        // net -> [fanOff[n], fanOff[n+1]) fanout edges
	fanIdx     []uint32       // edge -> global bit index into dirtyBits
	hot        []hotGate      // gate -> packed hot-path record
	insFlat    []NetID        // flattened gate inputs (N-ary fallback only)
	swE        []units.Energy // net -> SwitchEnergy(cap_[net], Vdd, 1)
	evals      uint64

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

// NewSim levelizes the netlist and returns a simulator, or an error if the
// combinational logic contains a cycle or an undriven net.
func NewSim(n *Netlist, vdd units.Voltage) (*Sim, error) {
	s := &Sim{
		N: n, Vdd: vdd,
		WireCap: DefaultWireCap, InputCap: DefaultInputCap, ClockCap: DefaultClockCap,
		val:     make([]uint64, (n.NumNets()+63)/64),
		qVal:    make([]uint64, (len(n.DFFs)+63)/64),
		nextQ:   make([]uint64, (len(n.DFFs)+63)/64),
		toggles: make([]uint64, n.NumNets()),
	}

	// Which gate drives each net (for dependency edges).
	driver := make([]int, n.NumNets())
	for i := range driver {
		driver[i] = -1
	}
	for gi, g := range n.Gates {
		if driver[g.Out] != -1 {
			return nil, fmt.Errorf("gate: net %q multiply driven", n.NetName(g.Out))
		}
		driver[g.Out] = gi
	}
	isSource := make([]bool, n.NumNets())
	for _, id := range n.Inputs {
		isSource[id] = true
	}
	for _, ff := range n.DFFs {
		isSource[ff.Q] = true
	}

	// Kahn topological sort over gates.
	indeg := make([]int, len(n.Gates))
	succ := make([][]int32, len(n.Gates))
	for gi, g := range n.Gates {
		for _, in := range g.Ins {
			if isSource[in] {
				continue
			}
			d := driver[in]
			if d == -1 {
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
	s.order = order

	// Levelize for activity-driven evaluation.
	level := make([]int, len(n.Gates))
	maxLevel := 0
	for _, gi := range order {
		lv := 0
		for _, in := range n.Gates[gi].Ins {
			if d := driver[in]; d != -1 {
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
	s.levelGates = make([][]int32, maxLevel+1)
	for _, gi := range order {
		s.levelGates[level[gi]] = append(s.levelGates[level[gi]], int32(gi))
	}
	// Each gate's dirty bit lives at (levelOff[level] words + position in
	// level); precompute that address per gate for the fanout edges below.
	s.levelOff = make([]int32, maxLevel+2)
	for lv, gates := range s.levelGates {
		s.levelOff[lv+1] = s.levelOff[lv] + int32((len(gates)+63)/64)
	}
	s.dirtyBits = make([]uint64, s.levelOff[maxLevel+1])
	dirtyIdx := make([]uint32, len(n.Gates))
	for lv, gates := range s.levelGates {
		for pos, gi := range gates {
			dirtyIdx[gi] = uint32(s.levelOff[lv])<<6 + uint32(pos)
		}
	}

	// CSR fanout: per edge, the global dirty-bit index of the dependent
	// gate (4 bytes per edge keeps the fanout walk cache-dense).
	s.fanOff = make([]int32, n.NumNets()+1)
	for _, g := range n.Gates {
		for _, in := range g.Ins {
			s.fanOff[in+1]++
		}
	}
	for i := 1; i < len(s.fanOff); i++ {
		s.fanOff[i] += s.fanOff[i-1]
	}
	s.fanIdx = make([]uint32, s.fanOff[len(s.fanOff)-1])
	fill := make([]int32, n.NumNets())
	for gi, g := range n.Gates {
		for _, in := range g.Ins {
			s.fanIdx[s.fanOff[in]+fill[in]] = dirtyIdx[gi]
			fill[in]++
		}
	}
	// Packed per-gate hot records; wide gates spill inputs to insFlat.
	s.hot = make([]hotGate, len(n.Gates))
	for gi, g := range n.Gates {
		h := hotGate{op: specializeOp(g.Kind, len(g.Ins)), out: g.Out}
		switch {
		case h.op == opNot || h.op == opBuf:
			h.a, h.b = int32(g.Ins[0]), int32(g.Ins[0])
		case h.op < opNot: // 2-input specialized forms
			h.a, h.b = int32(g.Ins[0]), int32(g.Ins[1])
		default: // N-ary fallback: a/b index insFlat
			h.a = int32(len(s.insFlat))
			s.insFlat = append(s.insFlat, g.Ins...)
			h.b = int32(len(s.insFlat))
		}
		s.hot[gi] = h
	}

	s.dNets = make([]NetID, len(n.DFFs))
	for i, ff := range n.DFFs {
		s.dNets[i] = ff.D
	}

	// Effective capacitance: intrinsic wire cap + input load per fanout.
	s.cap_ = make([]units.Capacitance, n.NumNets())
	for i := range s.cap_ {
		s.cap_[i] = s.WireCap
	}
	for _, g := range n.Gates {
		for _, in := range g.Ins {
			s.cap_[in] += s.InputCap
		}
	}
	for _, ff := range n.DFFs {
		s.cap_[ff.D] += s.InputCap
	}
	// Per-net single-transition energy, precomputed so the hot loops add a
	// cached float instead of recomputing ½·C·Vdd² (bitwise identical — the
	// inputs never change after construction).
	s.swE = make([]units.Energy, n.NumNets())
	for i := range s.swE {
		s.swE[i] = units.SwitchEnergy(s.cap_[i], s.Vdd, 1)
	}

	s.Reset()
	return s, nil
}

// bit returns the current value of net id.
func (s *Sim) bit(id NetID) bool {
	return s.val[uint32(id)>>6]>>(uint32(id)&63)&1 == 1
}

// flip inverts the current value of net id.
func (s *Sim) flip(id NetID) {
	s.val[uint32(id)>>6] ^= 1 << (uint32(id) & 63)
}

// setBit forces net id to v.
func (s *Sim) setBit(id NetID, v bool) {
	if v {
		s.val[uint32(id)>>6] |= 1 << (uint32(id) & 63)
	} else {
		s.val[uint32(id)>>6] &^= 1 << (uint32(id) & 63)
	}
}

// evalGate computes gate gi's function over the packed net values (cold
// path — Reset; the settle loop inlines the same dispatch).
func (s *Sim) evalGate(gi int32) bool {
	h := s.hot[gi]
	val := s.val
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
		for _, in := range s.insFlat[h.a:h.b] {
			if val[uint32(in)>>6]>>(uint32(in)&63)&1 == 0 {
				r = false
				break
			}
		}
		return r != (h.op == opNandN)
	case opOrN, opNorN:
		r := false
		for _, in := range s.insFlat[h.a:h.b] {
			if val[uint32(in)>>6]>>(uint32(in)&63)&1 != 0 {
				r = true
				break
			}
		}
		return r != (h.op == opNorN)
	default: // opXorN, opXnorN
		r := false
		for _, in := range s.insFlat[h.a:h.b] {
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
	for _, di := range s.fanIdx[s.fanOff[net]:s.fanOff[net+1]] {
		s.dirtyBits[di>>6] |= 1 << (di & 63)
	}
}

// Reset restores initial flop state and settles the combinational logic
// (without charging energy — power-on state is not switching activity).
func (s *Sim) Reset() {
	for i := range s.val {
		s.val[i] = 0
	}
	for i := range s.qVal {
		s.qVal[i] = 0
		s.nextQ[i] = 0
	}
	for i, ff := range s.N.DFFs {
		s.setBit(ff.Q, ff.Init)
		if ff.Init {
			s.qVal[uint32(i)>>6] |= 1 << (uint32(i) & 63)
			s.nextQ[uint32(i)>>6] |= 1 << (uint32(i) & 63)
		}
	}
	for _, gi := range s.order {
		s.setBit(s.N.Gates[gi].Out, s.evalGate(int32(gi)))
	}
	s.capture()
	s.cycles = 0
	s.energy = 0
	s.evals = 0
	s.forced = false
	s.history = s.history[:0]
	for i := range s.toggles {
		s.toggles[i] = 0
	}
	for i := range s.dirtyBits {
		s.dirtyBits[i] = 0
	}
}

// capture latches each flop's D value into the next-state bitset.
func (s *Sim) capture() {
	for i := range s.nextQ {
		s.nextQ[i] = 0
	}
	val := s.val
	for i, d := range s.dNets {
		s.nextQ[uint32(i)>>6] |= (val[uint32(d)>>6] >> (uint32(d) & 63) & 1) << (uint32(i) & 63)
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
	e += units.SwitchEnergy(s.ClockCap, s.Vdd, uint64(len(dffs)))

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
	hot, insFlat := s.hot, s.insFlat
	toggles, swE := s.toggles, s.swE
	fanOff, fanIdx, dirtyBits := s.fanOff, s.fanIdx, s.dirtyBits
	for lv, gates := range s.levelGates {
		dirtyLv := dirtyBits[s.levelOff[lv]:s.levelOff[lv+1]]
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
	s.capture()
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
	e := units.SwitchEnergy(s.ClockCap, s.Vdd, uint64(len(s.N.DFFs)))
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
