package hwsyn

import (
	"slices"
	"sync"

	"repro/internal/cfsm"
	"repro/internal/gate"
	"repro/internal/telemetry"
	"repro/internal/units"
)

var (
	mReplays   = telemetry.Default.Counter("coest_hw_replays_total", "hardware executions replayed from a recorded course")
	mFallbacks = telemetry.Default.Counter("coest_hw_replay_fallbacks_total", "replayed hardware executions that left their course and simulated the rest")
)

// Replay is a table of recorded hardware-execution courses that any number
// of Drivers, on any goroutines, share. An execution that starts from a
// gate state, input vector and supply voltage the table already holds
// replays the recorded course instead of settling the netlist cycle by
// cycle: the same per-cycle energies, emissions and memory requests, added
// in the same order, and the same final state. An execution the table does
// not hold is simulated and recorded when it completes, until a course
// would take the table past its byte limit; from then on executions
// simulate and record nothing.
//
// The course is the execution under zero-wait memory service. A replay
// stays exact under any other service as long as the service keeps to the
// course: every read is served the recorded data, and every stall falls
// where the engine sits at a fixed point with its acknowledge low (Steady),
// so a stall of any length only clocks the netlist. A read served other
// data continues in another course from the same start that read the same
// data up to there, if the table holds one. Otherwise — that read, a stall
// where the recording was not steady, or a course that would run past
// MaxCycles — the execution leaves the replay: the Driver's simulator
// takes the state recorded at that access, and the execution goes on as a
// real simulation. One that left at a read records its own course, which
// shares the prefix it replayed.
//
// A course keeps the states at its accesses compact
// (gate.Sim.AppendCompact): the flop values and the primary-input values,
// a few words where the whole net state is tens. Leaving a replay, which
// is rare, rebuilds the whole state from them with one settle of the
// netlist (gate.Sim.SetCompact). The state at Done, which every replay
// that stays on its course ends in, is kept whole (gate.Sim.AppendState),
// so finishing a replay only copies it back.
type Replay struct {
	limit int

	mu      sync.Mutex
	bytes   int
	stopped bool                 // a course did not fit: record no more
	courses map[uint64][]*course // by key hash
}

// NewReplay returns an empty table that stops recording once its courses
// hold limit bytes.
func NewReplay(limit int) *Replay {
	return &Replay{limit: limit, courses: make(map[uint64][]*course)}
}

// course is one recorded execution. Its key is the simulator's compact
// state at Begin, the input vector Begin drives and the supply voltage; a
// course is only ever matched on the whole key and on the module's gate
// program.
type course struct {
	prog   *gate.Program
	key    []uint64
	cycles []units.Energy // every compute cycle, the Go cycle first
	emits  []courseEmit
	access []courseAccess
	words  int      // words of one compact state
	states []uint64 // compact state after the Go cycle, then at each access
	final  []uint64 // packed state at Done
}

// courseEmit is an emission and the index of the cycle that made it.
type courseEmit struct {
	at int
	em cfsm.Emission
}

// courseAccess is one memory access of a course: at is the number of
// compute cycles run before the engine requested it, and data the write
// data or the (masked) read data that served it. steady records whether
// the engine, held there with its acknowledge low, sits at a fixed point,
// so that a stall there only clocks it.
type courseAccess struct {
	at     int
	addr   uint32
	data   uint32
	write  bool
	steady bool
}

// stop returns the number of compute cycles before access i, or the
// course's length when i is past the last access.
func (c *course) stop(i int) int {
	if i < len(c.access) {
		return c.access[i].at
	}
	return len(c.cycles)
}

// state returns the compact state at position pos: 0 is after the Go cycle,
// i+1 is at access i.
func (c *course) state(pos int) []uint64 {
	return c.states[pos*c.words : (pos+1)*c.words]
}

// trim drops the append slack of a recorded course, which the table keeps
// for its whole life.
func (c *course) trim() {
	c.cycles = slices.Clone(c.cycles)
	c.emits = slices.Clone(c.emits)
	c.access = slices.Clone(c.access)
	c.states = slices.Clone(c.states)
}

// size approximates the bytes a course holds.
func (c *course) size() int {
	return 8*(len(c.key)+len(c.cycles)+len(c.states)+len(c.final)) +
		32*len(c.emits) + 24*len(c.access) + 160
}

// hashKey mixes a key's words.
func hashKey(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 31
	}
	return h
}

// lookup returns the course recorded for prog under key, or nil.
func (t *Replay) lookup(prog *gate.Program, key []uint64) *course {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.courses[h] {
		if c.prog == prog && slices.Equal(c.key, key) {
			return c
		}
	}
	return nil
}

// branch returns a course recorded from c's start that read what c read
// before its access i and data at access i, or nil. Up to that access the
// two executions are the same, so a replay may go on in the other.
func (t *Replay) branch(c *course, i int, data uint32) *course {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.courses[hashKey(c.key)] {
		if o != c && o.prog == c.prog && len(o.access) > i && o.access[i].data == data &&
			slices.Equal(o.access[:i], c.access[:i]) && slices.Equal(o.key, c.key) {
			return o
		}
	}
	return nil
}

// full reports whether the table has stopped recording.
func (t *Replay) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stopped
}

// insert adds a completed course, unless another execution has recorded
// the same course meanwhile: the same start and the same accesses. A
// course that would take the table past its limit stops the recording for
// good.
func (t *Replay) insert(c *course) {
	c.trim()
	size := c.size()
	h := hashKey(c.key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.bytes+size > t.limit {
		t.stopped = true
		return
	}
	for _, o := range t.courses[h] {
		if o.prog == c.prog && slices.Equal(o.key, c.key) && slices.Equal(o.access, c.access) {
			return
		}
	}
	t.courses[h] = append(t.courses[h], c)
	t.bytes += size
}
