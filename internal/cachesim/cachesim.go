// Package cachesim implements the fast instruction-cache simulator attached
// directly to the simulation master (paper §3, ref [19]): the ISS assumes
// 100% hits, while this simulator consumes the instruction-address traces
// that the master derives from the discrete-event behavioral model and
// produces hit/miss statistics, miss cycles, and miss energy.
//
// Because the traces come from the master — not from the ISS — acceleration
// techniques that skip ISS invocations (energy caching, macro-modeling) do
// not perturb the reference stream, which is load-bearing for the paper's
// zero-error caching result (§5.2).
package cachesim

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// Config describes a set-associative cache with LRU replacement.
type Config struct {
	Sets      int // number of sets (power of two)
	Ways      int // associativity
	LineBytes int // line size in bytes (power of two)

	MissPenalty uint64       // extra cycles per miss (line refill)
	MissEnergy  units.Energy // energy per line refill from main memory
	HitEnergy   units.Energy // energy per cache probe
}

// Default8K returns the default instruction cache: 8 KB, 2-way, 16-byte
// lines — the flavor of small embedded I-cache a SPARClite would carry.
func Default8K() Config {
	return Config{
		Sets:        256,
		Ways:        2,
		LineBytes:   16,
		MissPenalty: 8,
		MissEnergy:  12 * units.Nanojoule,
		HitEnergy:   0.35 * units.Nanojoule,
	}
}

// Stats accumulates cache activity.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Cycles   uint64 // miss-penalty cycles only
	Energy   units.Energy
}

// MissRate returns misses/accesses (0 for no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid bool
	tag   uint32
	lru   uint64 // last-use stamp
}

// Cache is one set-associative LRU cache instance.
type Cache struct {
	cfg      Config
	lines    []line // set s is lines[s*Ways : (s+1)*Ways]
	stamp    uint64
	stats    Stats
	lineBits uint
	setBits  uint
	setMask  uint32
}

// New validates the configuration and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || bits.OnesCount(uint(cfg.Sets)) != 1 {
		return nil, fmt.Errorf("cachesim: sets must be a positive power of two, got %d", cfg.Sets)
	}
	if cfg.LineBytes <= 0 || bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		return nil, fmt.Errorf("cachesim: line size must be a positive power of two, got %d", cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cachesim: ways must be positive, got %d", cfg.Ways)
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, cfg.Sets*cfg.Ways),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:  uint32(cfg.Sets - 1),
	}, nil
}

// MustNew is New, panicking on config errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stamp = 0
	c.stats = Stats{}
}

// Access probes the cache with one address and reports whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.stamp++
	c.stats.Accesses++
	lineAddr := addr >> c.lineBits
	first := int(lineAddr&c.setMask) * c.cfg.Ways
	set := c.lines[first : first+c.cfg.Ways]
	tag := lineAddr >> c.setBits

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			c.stats.Hits++
			c.stats.Energy += c.cfg.HitEnergy
			return true
		}
	}

	// Miss: fill the LRU way.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{valid: true, tag: tag, lru: c.stamp}
	c.stats.Misses++
	c.stats.Cycles += c.cfg.MissPenalty
	c.stats.Energy += c.cfg.HitEnergy + c.cfg.MissEnergy
	return false
}

// AccessRange probes every instruction word in [start, end) — the "fast"
// basic-block-range mode of [19]: the master knows a whole straight-line
// block executes, so it feeds the range instead of per-instruction calls.
func (c *Cache) AccessRange(start, end uint32) {
	for a := start &^ 3; a < end; a += 4 {
		c.Access(a)
	}
}
