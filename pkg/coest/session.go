package coest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Session is the compile-once/estimate-many form of the estimator — the
// warm path behind long-running services. NewSession synthesizes the system
// a single time (software partition compiled to one SPARC image, every
// hardware process to a gate netlist); each subsequent Estimate clones the
// CFSM network and rebinds the shared read-only artifacts to the clone, so
// repeat estimations perform zero recompilation — the gate netlists'
// levelized programs are part of those artifacts, so that covers gate
// levelization too — and may run concurrently.
//
// A Session also persists state that the paper's accelerations amortize
// across runs:
//
//   - energy caches (§4.2): runs that enable WithEnergyCache share one
//     persistent cache pair per parameter setting, so paths characterized
//     by earlier requests are served from the cache in later ones;
//   - macro tables (§4.1): shared process-wide (see WithMacroModel), so a
//     session never re-characterizes.
//
// Persistent caches trade strict run-to-run determinism for warmth: a
// cache-enabled run's exact energies depend on how warm the session cache
// already is. Runs without WithEnergyCache are unaffected and remain
// bit-identical to a cold Estimate of the same configuration.
//
// All methods are safe for concurrent use.
type Session struct {
	spec *core.System // session-private clone of the subject
	base core.Config  // resolved baseline configuration
	art  *core.Artifacts

	mu     sync.Mutex
	caches map[ECacheParams]*cachePair
	onPair func(p ECacheParams, sw, hw *ecache.Cache)
	last   *core.CoSim // most recently completed run, for cache reports
}

// cachePair is one persistent SW/HW energy-cache pair.
type cachePair struct {
	sw, hw *ecache.Cache
}

// NewSession compiles the system once under the resolved options and
// returns the reusable session. NewSession accepts config-scope options
// only; run-level options fail with ErrOptionScope.
func NewSession(sys *System, opts ...Option) (*Session, error) {
	cfg, err := sys.configured("NewSession", scopeConfig, opts)
	if err != nil {
		return nil, err
	}
	spec := sys.spec.Clone()
	cs, err := core.NewShared(spec, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Session{
		spec:   spec,
		base:   cfg,
		art:    cs.Artifacts(),
		caches: make(map[ECacheParams]*cachePair),
	}, nil
}

// SWProgram returns the compiled SPARC program image of the software
// partition, or nil when no process maps to software.
func (s *Session) SWProgram() *Program {
	if s.art.Image == nil {
		return nil
	}
	return s.art.Image.Prog
}

// HWNetlists returns the synthesized gate-level netlist of every hardware
// process, keyed by machine name.
func (s *Session) HWNetlists() map[string]*Netlist {
	out := make(map[string]*Netlist, len(s.art.HW))
	for name, mod := range s.art.HW {
		out[name] = mod.N
	}
	return out
}

// SWCacheReport returns the software energy-cache path snapshot of the most
// recently completed run (nil before the first run or when the energy cache
// was off). With persistent session caches the snapshot is cumulative
// across the runs that shared the cache.
func (s *Session) SWCacheReport() []CachePathReport {
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	if last == nil {
		return nil
	}
	return last.SWCacheReport()
}

// runConfig resolves per-run options on top of the session baseline and
// attaches the session's persistent caches.
func (s *Session) runConfig(call string, opts []Option) (core.Config, error) {
	cfg := s.base.Clone()
	st := newSettings(&cfg)
	if err := st.applyAll(call, scopeConfig, opts); err != nil {
		return core.Config{}, err
	}
	if err := st.resolveMacro(); err != nil {
		return core.Config{}, err
	}
	if cfg.HWWidth != s.art.HWWidth {
		return core.Config{}, fmt.Errorf(
			"coest: %s: HW width %d differs from the session's compiled width %d (start a new session)",
			call, cfg.HWWidth, s.art.HWWidth)
	}
	if cfg.Accel.ECache {
		pair := s.cachePairFor(cfg.Accel.ECacheParams)
		cfg.SWECache, cfg.HWECache = pair.sw, pair.hw
	}
	return cfg, nil
}

// newCachePair returns an empty pair, marked concurrent: batch points and
// overlapping requests may share it.
func newCachePair(p ECacheParams) *cachePair {
	return &cachePair{sw: ecache.New(p).Shared(), hw: ecache.New(p).Shared()}
}

// cachePairFor returns (building on demand) the session's persistent
// energy-cache pair for one parameter setting.
func (s *Session) cachePairFor(p ECacheParams) *cachePair {
	s.mu.Lock()
	pair, ok := s.caches[p]
	if !ok {
		pair = newCachePair(p)
		s.caches[p] = pair
	}
	fn := s.onPair
	s.mu.Unlock()
	if !ok && fn != nil {
		fn(p, pair.sw, pair.hw)
	}
	return pair
}

// OnECachePair registers fn to observe every persistent energy-cache pair
// the session holds: it is called immediately for pairs that already exist
// and again whenever a new parameter setting creates one. The serving layer
// uses this to attach session caches to a fleet-wide cache-sync tier the
// moment they come into being — which is also the pull-on-miss point: the
// attach handler's first sync primes a brand-new cache from the central
// store before it serves its first lookup.
//
// fn is invoked without the session lock held; at most one callback is
// registered (a later call replaces the earlier one).
func (s *Session) OnECachePair(fn func(p ECacheParams, sw, hw *ecache.Cache)) {
	s.mu.Lock()
	s.onPair = fn
	existing := make([]ECacheParams, 0, len(s.caches))
	for p := range s.caches {
		existing = append(existing, p)
	}
	s.mu.Unlock()
	if fn == nil {
		return
	}
	for _, p := range existing {
		s.mu.Lock()
		pair := s.caches[p]
		s.mu.Unlock()
		fn(p, pair.sw, pair.hw)
	}
}

// Estimate runs one co-estimation on the warm session: the network is
// cloned, the compiled artifacts are rebound to the clone, and the
// simulation runs under ctx with the same cancellation semantics as
// coest.Estimate (prompt mid-run abort, context errors for wall-clock
// limits, ErrSimTimeExceeded for the simulated-time deadline).
//
// Options refine the session baseline for this run only and must be
// config-scope; run-level options fail with ErrOptionScope. The one knob
// that cannot change per run is HWWidth — it is baked into the compiled
// artifacts.
func (s *Session) Estimate(ctx context.Context, opts ...Option) (*Report, error) {
	cfg, err := s.runConfig("Session.Estimate", opts)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, cfg)
}

// run executes one configured estimation on a fresh clone.
func (s *Session) run(ctx context.Context, cfg core.Config) (*Report, error) {
	ctx, span := telemetry.StartSpan(ctx, "estimate")
	defer span.End()
	_, bspan := telemetry.StartSpan(ctx, "rebind")
	cs, err := core.NewShared(s.spec.Clone(), cfg, s.art)
	bspan.End()
	if err != nil {
		return nil, err
	}
	rep, err := cs.RunContext(ctx)
	if err == nil {
		s.mu.Lock()
		s.last = cs
		s.mu.Unlock()
	}
	return rep, err
}

// EstimateBatch coalesces many estimations of the session's design into one
// engine sweep over a bounded worker pool: points[i] is the config-scope
// option list of point i, applied on top of the batch-wide options. opts
// accepts both scopes — config options are applied to every point, run
// options (WithWorkers, WithProgress) steer the batch.
//
// Unlike Sweep, a failing point does not abort the batch: its error lands
// in the point's PointResult.Err and the other points complete. The
// returned slice always has len(points) entries in index order (unless ctx
// is cancelled, in which case the completed prefix set is returned with the
// context's error). Split with Reports and Errors.
func (s *Session) EstimateBatch(ctx context.Context, points [][]Option, opts ...Option) ([]PointResult, error) {
	var common []Option
	st := newSettings(nil)
	for _, o := range opts {
		if o.apply == nil {
			continue
		}
		// Run-scope options steer the batch; config options are re-applied
		// per point below, but also pass through st here so an invalid
		// batch-wide option fails the batch up front.
		o.apply(st)
		if o.scope&scopeRun == 0 {
			common = append(common, o)
		}
	}
	if st.err != nil {
		return nil, fmt.Errorf("coest: %w", st.err)
	}
	n := len(points)
	if n == 0 {
		return nil, ctx.Err()
	}
	ctx, span := telemetry.StartSpanWith(ctx, "batch", "", int64(n))
	defer span.End()
	outs, err := engine.RunOutcomes(ctx, n, engine.Options{
		Workers:   st.workers,
		OnPoint:   st.onPoint,
		Artifacts: s.art,
		OnRun: func(_ int, cs *core.CoSim) {
			s.mu.Lock()
			s.last = cs
			s.mu.Unlock()
		},
	}, func(i int) (*core.System, core.Config, error) {
		merged := points[i]
		if len(common) > 0 {
			merged = append(append([]Option{}, common...), points[i]...)
		}
		cfg, err := s.runConfig("Session.EstimateBatch", merged)
		if err != nil {
			return nil, core.Config{}, err
		}
		return s.spec.Clone(), cfg, nil
	})
	// Point failures ride the result, not the batch error: one bad grid
	// point must not abort a serving batch.
	out := make([]PointResult, 0, len(outs))
	for _, o := range outs {
		out = append(out, PointResult{Index: o.Index, Report: o.Report, Err: o.Err})
	}
	return out, err
}
