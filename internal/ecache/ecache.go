// Package ecache implements the energy and delay caching acceleration of
// §4.2 of the paper: a dynamically built lookup table keyed by execution
// path, holding the running mean and variance of the energy and delay the
// lower-level simulator (ISS or gate-level) reported for that path. Once a
// path has been simulated at least thresh_iss_calls times and its energy
// variance is below thresh_variance, the cached means are used and the
// simulator is skipped.
package ecache

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide energy-cache metrics (aggregated across every instance: SW
// and HW caches, all concurrent sweep points).
var (
	mLookups = telemetry.Default.Counter("coest_ecache_lookups_total", "energy-cache lookups")
	mHits    = telemetry.Default.Counter("coest_ecache_hits_total", "energy-cache hits (simulator skipped)")
)

// Params are the two user-specified knobs of Fig 4(c), controlling the
// aggressiveness of caching and hence the accuracy/efficiency tradeoff.
type Params struct {
	// ThreshVariance is the maximum relative spread (coefficient of
	// variation of energy) for a path to be served from the cache. Zero
	// admits only paths that have shown bit-identical energies.
	ThreshVariance float64
	// ThreshCalls is the minimum number of simulator invocations of a path
	// before its cached value may be used.
	ThreshCalls uint64
}

// DefaultParams matches the paper's conservative setting: require a few
// observations and near-zero spread.
func DefaultParams() Params {
	return Params{ThreshVariance: 0.02, ThreshCalls: 2}
}

// Table1Params are the thresholds of the Table 1 reproduction
// (thresh_variance / thresh_iss_calls, paper §4.2). For a hardware path
// the cache stores stall-inclusive energy: the gate-level energy of the
// whole reaction, including the clock energy of the cycles it stalled on
// the bus, next to its stall-free cycle count. That energy's spread
// therefore follows the bus context (DMA size, arbitration, the other
// masters' traffic) as well as operand values. Defined once so that
// paperrun's table1, quality and serving experiments measure the same
// configuration.
func Table1Params() Params {
	return Params{ThreshVariance: 0.15, ThreshCalls: 3}
}

// Key identifies one cached path: the machine and its path key.
type Key struct {
	Machine int
	Path    cfsm.PathKey
}

// Entry is the per-path record.
type Entry struct {
	Energy stats.Running // joules per execution
	Cycles stats.Running // estimator-reported cycles per execution
	// Hits counts the reactions served from this entry — the per-path
	// exposure that weights the entry's spread in the error budget. It
	// survives Invalidate so the exposure stays truthful across
	// re-characterization.
	Hits uint64

	// pendE/pendC accumulate the observations folded in since the last
	// ExportDelta — the write-behind delta a fleet-wide cache tier ships to
	// the central store. Energy/Cycles always remain the effective view
	// (merged global base plus pending locals).
	pendE stats.Running
	pendC stats.Running
}

// Ready reports whether the entry satisfies the thresholds.
func (e *Entry) Ready(p Params) bool {
	return e.Energy.N() >= p.ThreshCalls && e.Energy.CoefVar() <= p.ThreshVariance
}

// Stats summarizes cache effectiveness.
type Stats struct {
	Lookups       uint64
	Hits          uint64 // served from cache: simulator skipped
	Entries       int
	Invalidations uint64 // entries reset by the shadow auditor
}

// Since returns the activity accumulated after base was captured — the
// per-run view of a persistent cache that outlives individual runs.
// Entries and the hit-rate denominator stay meaningful: counters subtract,
// the entry count (a size, not a flow) carries over.
func (s Stats) Since(base Stats) Stats {
	return Stats{
		Lookups:       s.Lookups - base.Lookups,
		Hits:          s.Hits - base.Hits,
		Entries:       s.Entries,
		Invalidations: s.Invalidations - base.Invalidations,
	}
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// record is one interned path: the precomputed FNV hash of its key plus the
// per-path entry (pointer-stable across table growth).
type record struct {
	key  Key
	hash uint64
	ent  *Entry
}

// Cache is one energy/delay cache instance (typically one per estimator).
//
// Paths are interned under a precomputed 64-bit FNV-1a hash of (Machine,
// Path) in an open-addressed table, so the per-reaction Lookup/Update fast
// path is a handful of flat-array probes instead of runtime map hashing of
// a struct key.
type Cache struct {
	params        Params
	slots         []int32 // open-addressed: 1-based index into recs, 0 = empty
	recs          []record
	lookups       uint64
	hits          uint64
	invalidations uint64

	// mu serializes all access when the cache is Shared; nil for the
	// default single-simulation cache, whose hot path stays lock-free.
	mu *sync.Mutex
}

// New returns an empty cache.
func New(p Params) *Cache {
	return &Cache{params: p, slots: make([]int32, 64)}
}

// Shared marks the cache safe for concurrent use by serializing every
// operation behind a mutex, and returns the cache. A session that persists
// one energy cache across overlapping estimation runs shares it this way;
// the default per-run cache skips the lock entirely (a nil-mutex check on
// the hot path). Call Shared before the cache is visible to more than one
// goroutine.
func (c *Cache) Shared() *Cache {
	if c.mu == nil {
		c.mu = &sync.Mutex{}
	}
	return c
}

// lock acquires the mutex of a Shared cache; a no-op otherwise.
func (c *Cache) lock() {
	if c.mu != nil {
		c.mu.Lock()
	}
}

func (c *Cache) unlock() {
	if c.mu != nil {
		c.mu.Unlock()
	}
}

// Params returns the configured thresholds.
func (c *Cache) Params() Params { return c.params }

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// keyHash is 64-bit FNV-1a over the 16 bytes of (Machine, Path).
func keyHash(k Key) uint64 {
	h := uint64(fnvOffset)
	x := uint64(k.Machine)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	y := uint64(k.Path)
	for i := 0; i < 8; i++ {
		h = (h ^ (y & 0xff)) * fnvPrime
		y >>= 8
	}
	return h
}

// find linear-probes for k (with hash h); it returns the entry, or nil and
// the empty slot index where k belongs.
func (c *Cache) find(k Key, h uint64) (*Entry, uint64) {
	mask := uint64(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ri := c.slots[i]
		if ri == 0 {
			return nil, i
		}
		if r := &c.recs[ri-1]; r.hash == h && r.key == k {
			return r.ent, i
		}
	}
}

// grow doubles the slot table and reinserts from the stored hashes.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]int32, 2*len(old))
	mask := uint64(len(c.slots) - 1)
	for ri := range c.recs {
		i := c.recs[ri].hash & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(ri + 1)
	}
}

// Lookup consults the cache for a path. On a hit it returns the mean energy
// and mean cycle count and true; the caller skips the simulator. On a miss
// the caller must simulate and then call Update.
func (c *Cache) Lookup(k Key) (units.Energy, uint64, bool) {
	c.lock()
	defer c.unlock()
	c.lookups++
	mLookups.Inc()
	e, _ := c.find(k, keyHash(k))
	if e == nil || !e.Ready(c.params) {
		return 0, 0, false
	}
	c.hits++
	e.Hits++
	mHits.Inc()
	return units.Energy(e.Energy.Mean()), uint64(e.Cycles.Mean() + 0.5), true
}

// Invalidate resets a path's accumulated statistics so it must
// re-qualify (ThreshCalls fresh observations, spread back under
// ThreshVariance) before being served again — the shadow auditor's
// continuous re-characterization hook for entries that drift. The
// served-reaction count is preserved; the error budget must keep
// weighting the entry by everything it already served. Unknown keys are
// a no-op.
func (c *Cache) Invalidate(k Key) {
	c.lock()
	defer c.unlock()
	e, _ := c.find(k, keyHash(k))
	if e == nil {
		return
	}
	*e = Entry{Hits: e.Hits}
	c.invalidations++
}

// Update folds a fresh simulator observation into the path's entry.
func (c *Cache) Update(k Key, energy units.Energy, cycles uint64) {
	c.lock()
	defer c.unlock()
	e := c.findOrCreate(k)
	e.Energy.Add(float64(energy))
	e.Cycles.Add(float64(cycles))
	e.pendE.Add(float64(energy))
	e.pendC.Add(float64(cycles))
}

// findOrCreate returns k's entry, interning a fresh one on first sight.
// Callers hold the lock of a Shared cache.
func (c *Cache) findOrCreate(k Key) *Entry {
	h := keyHash(k)
	e, slot := c.find(k, h)
	if e == nil {
		e = &Entry{}
		c.recs = append(c.recs, record{key: k, hash: h, ent: e})
		c.slots[slot] = int32(len(c.recs))
		if 4*len(c.recs) >= 3*len(c.slots) {
			c.grow()
		}
	}
	return e
}

// PathStat is the portable form of one path's accumulated statistics — the
// unit of fleet-wide cache replication (write-behind deltas and pulled
// global state) and of session snapshots. Hits ride along only in full
// Dump/Load snapshots; sync deltas leave it zero (hit exposure is local).
type PathStat struct {
	Key    Key                `json:"key"`
	Energy stats.RunningState `json:"energy"`
	Cycles stats.RunningState `json:"cycles"`
	Hits   uint64             `json:"hits,omitempty"`
}

// ExportDelta drains the per-path observations accumulated since the last
// export — the write-behind delta for a central cache store. Entries with
// nothing pending are skipped; an empty cache exports nil.
func (c *Cache) ExportDelta() []PathStat {
	c.lock()
	defer c.unlock()
	var out []PathStat
	for i := range c.recs {
		r := &c.recs[i]
		if r.ent.pendE.N() == 0 {
			continue
		}
		out = append(out, PathStat{
			Key:    r.key,
			Energy: r.ent.pendE.State(),
			Cycles: r.ent.pendC.State(),
		})
		r.ent.pendE = stats.Running{}
		r.ent.pendC = stats.Running{}
	}
	return out
}

// MergeGlobal folds the central store's per-path global statistics into the
// cache: each path's effective stats become the global view combined with
// whatever local observations are still pending (unpushed), so nothing is
// counted twice as long as the global state already contains this cache's
// exported deltas. Unknown paths are interned — this is how warmth learned
// on one shard reaches every other shard's cache. A global state that fails
// validation, or whose merge with the pending observations would, is
// refused with an error and leaves the cache unchanged.
func (c *Cache) MergeGlobal(global []PathStat) error {
	if err := validatePaths(global); err != nil {
		return err
	}
	c.lock()
	defer c.unlock()
	merged := make([][2]stats.Running, len(global))
	for i, ps := range global {
		var pendE, pendC stats.Running
		if e, _ := c.find(ps.Key, keyHash(ps.Key)); e != nil {
			pendE, pendC = e.pendE, e.pendC
		}
		m := &merged[i]
		m[0], m[1] = stats.RunningFromState(ps.Energy), stats.RunningFromState(ps.Cycles)
		if err := mergeChecked(ps.Key, m, pendE, pendC); err != nil {
			return err
		}
	}
	for i, ps := range global {
		e := c.findOrCreate(ps.Key)
		e.Energy, e.Cycles = merged[i][0], merged[i][1]
	}
	return nil
}

// MergeDelta folds exported deltas into this cache's effective statistics —
// the store-side half of the sync protocol. Unlike MergeGlobal it treats
// the incoming stats as new evidence (merged in), not as a replacement
// base, and leaves this cache's own pending accumulators untouched. The
// merge is all or nothing: a delta that fails validation, or whose merge
// would leave a path's statistics invalid, is refused with an error and the
// cache is left unchanged, so every state the cache holds passes
// stats.RunningState.Validate.
func (c *Cache) MergeDelta(delta []PathStat) error {
	if err := validatePaths(delta); err != nil {
		return err
	}
	c.lock()
	defer c.unlock()
	// A key may repeat within one delta; stage per key so each repeat
	// merges onto the previous one, as sequential merges would.
	staged := make(map[Key]*[2]stats.Running, len(delta))
	for _, ps := range delta {
		m, ok := staged[ps.Key]
		if !ok {
			m = new([2]stats.Running)
			if e, _ := c.find(ps.Key, keyHash(ps.Key)); e != nil {
				m[0], m[1] = e.Energy, e.Cycles
			}
			staged[ps.Key] = m
		}
		if err := mergeChecked(ps.Key, m, stats.RunningFromState(ps.Energy), stats.RunningFromState(ps.Cycles)); err != nil {
			return err
		}
	}
	for _, ps := range delta {
		m := staged[ps.Key]
		e := c.findOrCreate(ps.Key)
		e.Energy, e.Cycles = m[0], m[1]
	}
	return nil
}

// validatePaths checks every path's statistics with
// stats.RunningState.Validate, the check for state from outside the
// process.
func validatePaths(paths []PathStat) error {
	for _, ps := range paths {
		if err := ps.Energy.Validate(); err != nil {
			return fmt.Errorf("ecache: path %d/%d energy: %w", ps.Key.Machine, ps.Key.Path, err)
		}
		if err := ps.Cycles.Validate(); err != nil {
			return fmt.Errorf("ecache: path %d/%d cycles: %w", ps.Key.Machine, ps.Key.Path, err)
		}
	}
	return nil
}

// mergeChecked merges energy and cycles into m and fails when a result
// would not pass stats.RunningState.Validate or its count would wrap: two
// valid states can merge to an invalid one (finite means of ±1e308 have an
// infinite difference).
func mergeChecked(k Key, m *[2]stats.Running, energy, cycles stats.Running) error {
	for i, o := range [2]stats.Running{energy, cycles} {
		n := m[i].N()
		m[i].Merge(&o)
		if m[i].N() < n {
			return fmt.Errorf("ecache: path %d/%d: merged count overflows", k.Machine, k.Path)
		}
		if err := m[i].State().Validate(); err != nil {
			return fmt.Errorf("ecache: path %d/%d: merged state: %w", k.Machine, k.Path, err)
		}
	}
	return nil
}

// Dump captures the cache's full effective per-path state for a session
// snapshot. Pending (unpushed) deltas are folded in — the snapshot is the
// effective view; a restored cache starts with nothing pending.
func (c *Cache) Dump() []PathStat {
	c.lock()
	defer c.unlock()
	out := make([]PathStat, 0, len(c.recs))
	for i := range c.recs {
		r := &c.recs[i]
		out = append(out, PathStat{
			Key:    r.key,
			Energy: r.ent.Energy.State(),
			Cycles: r.ent.Cycles.State(),
			Hits:   r.ent.Hits,
		})
	}
	return out
}

// Load restores dumped path state into the cache (fresh caches only:
// existing entries are overwritten, counters untouched). Every path's
// statistics are checked first (stats.RunningState.Validate): if one fails,
// Load returns its error and loads nothing.
func (c *Cache) Load(paths []PathStat) error {
	if err := validatePaths(paths); err != nil {
		return err
	}
	c.lock()
	defer c.unlock()
	for _, ps := range paths {
		e := c.findOrCreate(ps.Key)
		e.Energy = stats.RunningFromState(ps.Energy)
		e.Cycles = stats.RunningFromState(ps.Cycles)
		e.Hits = ps.Hits
		e.pendE, e.pendC = stats.Running{}, stats.Running{}
	}
	return nil
}

// Entry exposes a path's record (nil if never observed) for reporting —
// e.g. the per-path energy spreads behind Fig 4(b). On a Shared cache the
// returned pointer is a live view; read it only while the cache is
// quiescent.
func (c *Cache) Entry(k Key) *Entry {
	c.lock()
	defer c.unlock()
	e, _ := c.find(k, keyHash(k))
	return e
}

// Stats returns cache effectiveness counters.
func (c *Cache) Stats() Stats {
	c.lock()
	defer c.unlock()
	return Stats{Lookups: c.lookups, Hits: c.hits, Entries: len(c.recs), Invalidations: c.invalidations}
}

// PathReport is one row of the per-path summary.
type PathReport struct {
	Key    Key
	Calls  uint64
	Hits   uint64 // reactions served from the cached means
	Mean   units.Energy
	StdDev units.Energy
	Min    units.Energy
	Max    units.Energy
	Cached bool
}

// Report returns per-path rows sorted by descending call count — the
// "snapshot of the energy cache" of Fig 4(c).
func (c *Cache) Report() []PathReport {
	c.lock()
	defer c.unlock()
	rows := make([]PathReport, 0, len(c.recs))
	for i := range c.recs {
		r := &c.recs[i]
		rows = append(rows, PathReport{
			Key:    r.key,
			Calls:  r.ent.Energy.N(),
			Hits:   r.ent.Hits,
			Mean:   units.Energy(r.ent.Energy.Mean()),
			StdDev: units.Energy(r.ent.Energy.StdDev()),
			Min:    units.Energy(r.ent.Energy.Min()),
			Max:    units.Energy(r.ent.Energy.Max()),
			Cached: r.ent.Ready(c.params),
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Calls != rows[b].Calls {
			return rows[a].Calls > rows[b].Calls
		}
		if rows[a].Key.Machine != rows[b].Key.Machine {
			return rows[a].Key.Machine < rows[b].Key.Machine
		}
		return rows[a].Key.Path < rows[b].Key.Path
	})
	return rows
}
