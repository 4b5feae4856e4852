// Package ecachesync replicates energy-cache warmth across an estimation
// fleet. The §4.2 energy cache learns per-path mean/variance statistics
// locally; this package ships those statistics — as exact Welford deltas —
// to a central store on a write-behind interval and folds the store's
// global view back into the local cache, so a path characterized on one
// shard skips the low-level simulator on every shard after at most one
// sync interval.
//
// The protocol is a single idempotent RPC: Sync(scope, node, pushes)
// merges the caller's unapplied pushes into the store and returns the full
// global state of the scope. Each push carries a per-node sequence number
// and the store applies it at most once, so a push whose response was lost
// (timeout, decode error) is retried verbatim without double-counting.
// Because the local cache keeps pushed history only as part of the merged
// global base (see ecache.ExportDelta / MergeGlobal), no observation is
// ever counted twice, and the merge is exact: fleet-wide statistics equal
// what one giant shared cache would have accumulated.
package ecachesync

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ecache"
	"repro/internal/telemetry"
)

// RED metrics of the cache-sync tier.
var (
	mSyncs      = telemetry.Default.Counter("ecachesync_syncs_total", "cache sync rounds completed")
	mSyncErrs   = telemetry.Default.Counter("ecachesync_sync_errors_total", "cache sync rounds failed")
	mPushed     = telemetry.Default.Counter("ecachesync_paths_pushed_total", "path deltas pushed to the store")
	mPulled     = telemetry.Default.Counter("ecachesync_paths_pulled_total", "path entries pulled from the store")
	mRefused    = telemetry.Default.Counter("ecachesync_paths_refused_total", "path deltas dropped because the store refused their push")
	mSyncNanos  = telemetry.Default.Counter("ecachesync_sync_nanos_total", "wall time spent in sync rounds")
	mStoreScope = telemetry.Default.Counter("ecachesync_store_scopes_total", "scopes created in the central store")
)

// Scope names one fleet-wide statistics namespace: a design (by wire
// fingerprint), the cache role within the estimator, and the cache
// parameter setting. Distinct scopes never mix — SW and HW path keys live
// in different index spaces, and caches with different admission thresholds
// must not share evidence.
type Scope struct {
	// Design is coestapi.Fingerprint(system, packets).
	Design uint64 `json:"design"`
	// Role is "sw" or "hw".
	Role string `json:"role"`
	// Params is the cache's admission parameter setting.
	Params ecache.Params `json:"params"`
}

func (s Scope) String() string {
	return fmt.Sprintf("%016x/%s/v%g-c%d", s.Design, s.Role, s.Params.ThreshVariance, s.Params.ThreshCalls)
}

// Push is one write-behind batch of observations. Seq is a per-node
// sequence number — strictly increasing over the pushes a node exports for
// one scope — and the store applies each (node, seq) at most once, which is
// what lets a syncer retry a push whose outcome is unknown.
type Push struct {
	Seq   uint64            `json:"seq"`
	Paths []ecache.PathStat `json:"paths"`
}

// Store is the central path-statistics store of the fleet.
type Store interface {
	// Sync merges the caller's pushes into the scope's global statistics —
	// deduplicating by (node, push seq), so retried pushes count once —
	// and returns the scope's full global state. An empty push list is a
	// pure pull — the prime-on-miss path.
	Sync(ctx context.Context, scope Scope, node string, pushes []Push) ([]ecache.PathStat, error)
}

// Memory is an in-process Store — the store a router embeds, and the
// reference semantics HTTP stores transport.
type Memory struct {
	mu      sync.Mutex
	scopes  map[Scope]*ecache.Cache
	applied map[Scope]map[string]uint64 // highest push seq applied, per node
}

// NewMemory returns an empty in-process store.
func NewMemory() *Memory {
	return &Memory{
		scopes:  make(map[Scope]*ecache.Cache),
		applied: make(map[Scope]map[string]uint64),
	}
}

// ErrInvalidPush marks a Sync refused because a push carries path
// statistics that fail validation or would merge into invalid ones. Nothing
// of the call is applied; HTTP stores answer it with 400, and HTTPStore
// turns a 400 back into it.
var ErrInvalidPush = errors.New("ecachesync: invalid push")

// Sync implements Store: exact Welford merge of the unapplied pushes, full
// dump back. The store lock covers the seq check, the merge and the dump as
// one atomic step, so concurrent retries of the same push (a timed-out sync
// racing its own replay) cannot both apply it. The merge is all or nothing:
// if any unapplied push is invalid, Sync fails with ErrInvalidPush, merges
// nothing, does not advance the node's seq and creates no scope.
func (m *Memory) Sync(_ context.Context, scope Scope, node string, pushes []Push) ([]ecache.PathStat, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.applied[scope][node]
	var paths []ecache.PathStat
	for _, p := range pushes {
		if p.Seq <= seq {
			continue // already applied; a retry after a lost response
		}
		paths = append(paths, p.Paths...)
		seq = p.Seq
	}
	c, ok := m.scopes[scope]
	if !ok {
		// Shared: Paths (and any future reader) dumps outside m.mu.
		c = ecache.New(scope.Params).Shared()
	}
	if err := c.MergeDelta(paths); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidPush, err)
	}
	if !ok {
		m.scopes[scope] = c
		mStoreScope.Inc()
	}
	if seq > m.applied[scope][node] {
		if m.applied[scope] == nil {
			m.applied[scope] = make(map[string]uint64)
		}
		m.applied[scope][node] = seq
	}
	return c.Dump(), nil
}

// Scopes returns the number of scopes the store holds.
func (m *Memory) Scopes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.scopes)
}

// Paths returns the number of path entries the store holds for one scope.
func (m *Memory) Paths(scope Scope) int {
	m.mu.Lock()
	c, ok := m.scopes[scope]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	return len(c.Dump())
}

// attached is one cache enrolled with a Syncer, plus its push bookkeeping:
// deltas exported but not yet acknowledged by the store stay queued here
// (with the seq they were first pushed under) and are retried verbatim
// until a round succeeds — the store's (node, seq) dedup makes the retry
// safe even when the failed round actually reached the store.
type attached struct {
	scope Scope
	cache *ecache.Cache

	mu      sync.Mutex // serializes sync rounds for this cache
	nextSeq uint64
	unacked []Push
}

// Syncer drives the write-behind loop of one fleet node: every interval it
// exports each attached cache's pending delta, ships it to the store, and
// folds the returned global state back in. Attach also performs an
// immediate synchronous sync — the pull-on-miss that lets a cache created
// cold on this node start from the fleet's accumulated warmth.
type Syncer struct {
	store    Store
	interval time.Duration
	node     string // unique per Syncer instance, scopes push seqs

	mu      sync.Mutex
	caches  []*attached
	stop    chan struct{}
	stopped sync.WaitGroup
}

// New returns a syncer against store. interval is the write-behind period
// for the background loop started by Start; a Syncer is fully usable
// without Start by calling SyncNow (how deterministic tests drive it).
func New(store Store, interval time.Duration) *Syncer {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	// The node id must be unique per Syncer *instance*, not per host: a
	// restarted shard's seqs start over at 0, and reusing the old id would
	// make the store drop every push as already-applied.
	var id [8]byte
	_, _ = rand.Read(id[:])
	return &Syncer{store: store, interval: interval, node: hex.EncodeToString(id[:])}
}

// Attach enrolls a cache under the given scope and immediately syncs it
// once (pushing nothing if the cache is fresh, pulling the scope's global
// state). Attaching the same cache twice is a no-op.
func (y *Syncer) Attach(ctx context.Context, scope Scope, c *ecache.Cache) error {
	y.mu.Lock()
	for _, a := range y.caches {
		if a.cache == c {
			y.mu.Unlock()
			return nil
		}
	}
	a := &attached{scope: scope, cache: c}
	y.caches = append(y.caches, a)
	y.mu.Unlock()
	return y.syncOne(ctx, a)
}

// SyncNow runs one full write-behind round over every attached cache. The
// first error is returned; caches whose round fails keep their exported
// pushes queued, so no observation is lost and none is counted twice —
// unless the store refused them as invalid (ErrInvalidPush), in which case
// they are dropped.
func (y *Syncer) SyncNow(ctx context.Context) error {
	y.mu.Lock()
	caches := append([]*attached(nil), y.caches...)
	y.mu.Unlock()
	var firstErr error
	for _, a := range caches {
		if err := y.syncOne(ctx, a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// syncOne ships one cache's queued pushes (the pending delta freshly
// exported as a new push, plus any unacknowledged earlier ones) and folds
// back the global view.
func (y *Syncer) syncOne(ctx context.Context, a *attached) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	start := time.Now()
	if delta := a.cache.ExportDelta(); len(delta) > 0 {
		a.nextSeq++
		a.unacked = append(a.unacked, Push{Seq: a.nextSeq, Paths: delta})
	}
	global, err := y.store.Sync(ctx, a.scope, y.node, a.unacked)
	pushed := 0
	for _, p := range a.unacked {
		pushed += len(p.Paths)
	}
	if errors.Is(err, ErrInvalidPush) {
		// The store refused the pushes and applied none of them. Sent
		// again they would be refused again, and block every later push
		// of this scope with them, so they are dropped.
		a.unacked = nil
		mRefused.Add(uint64(pushed))
		mSyncErrs.Inc()
		return fmt.Errorf("ecachesync: scope %v: %d paths dropped: %w", a.scope, pushed, err)
	}
	if err != nil {
		// Outcome unknown (the store may or may not have applied the
		// pushes): keep them queued. The next round retries them under
		// their original seqs and the store deduplicates.
		mSyncErrs.Inc()
		return fmt.Errorf("ecachesync: scope %v: %w", a.scope, err)
	}
	a.unacked = nil
	if err := a.cache.MergeGlobal(global); err != nil {
		// The store applied the pushes; the cache keeps its own view
		// until a later round returns a valid global state.
		mSyncErrs.Inc()
		return fmt.Errorf("ecachesync: scope %v: global state: %w", a.scope, err)
	}
	mSyncs.Inc()
	mPushed.Add(uint64(pushed))
	mPulled.Add(uint64(len(global)))
	mSyncNanos.Add(uint64(time.Since(start).Nanoseconds()))
	return nil
}

// Start launches the background write-behind loop. Stop with Stop.
func (y *Syncer) Start() {
	y.mu.Lock()
	if y.stop != nil {
		y.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	y.stop = stop
	y.mu.Unlock()
	y.stopped.Add(1)
	go func() {
		defer y.stopped.Done()
		t := time.NewTicker(y.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), y.interval)
				_ = y.SyncNow(ctx) // errors already counted; retried next tick
				cancel()
			}
		}
	}()
}

// Stop halts the background loop (if running) and runs one final sync so
// shutdown does not strand pending deltas.
func (y *Syncer) Stop(ctx context.Context) error {
	y.mu.Lock()
	stop := y.stop
	y.stop = nil
	y.mu.Unlock()
	if stop != nil {
		close(stop)
		y.stopped.Wait()
	}
	return y.SyncNow(ctx)
}
