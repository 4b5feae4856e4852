// Package engine is the parallel sweep/estimation substrate for design-space
// exploration: it runs many independent co-estimations over a bounded worker
// pool and merges their results deterministically.
//
// Every co-estimation is a self-contained deterministic simulation, so a
// sweep is embarrassingly parallel — the engine's job is to make the
// parallel run indistinguishable from the serial one except for wall time:
//
//   - results are merged by point index, so the output ordering and contents
//     are bit-identical to a serial loop regardless of worker count or
//     goroutine scheduling;
//   - a point failure cancels the remaining points and the lowest-index
//     error is reported, matching the serial loop's first-error semantics;
//   - context cancellation stops dispatching promptly and returns the
//     completed points, still in index order;
//   - expensive one-time setup is shared across all points instead of
//     being repeated per point: the macro-model characterization, and the
//     compilation of each distinct design, whose points also share one
//     table of recorded hardware executions (hwsyn.Replay) — or, for a
//     session's batch, the session's artifacts and the table that lives
//     as long as the session;
//   - a per-point metrics record feeds a progress callback so long sweeps
//     are observable while they run.
//
// pkg/coest exposes it publicly as coest.Sweep, which the paper harness and
// the CLIs sweep through.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/hwsyn"
	"repro/internal/telemetry"
)

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of concurrent co-estimations. Zero or
	// negative means runtime.GOMAXPROCS(0). The pool never runs more
	// workers than there are points.
	Workers int

	// OnPoint, if set, receives one metrics record per finished point of
	// RunReports or RunOutcomes, in completion order (not index order).
	// Calls are serialized by the engine, so the callback does not need its
	// own locking; it must not block for long, since it is on the workers'
	// critical path. The generic Run ignores it.
	OnPoint func(PointMetrics)

	// Artifacts, if set, are compile-once synthesis products every point
	// rebinds (the warm-session path), with the replay table they carry,
	// if any. They must have been built from the same system with the same
	// HWWidth as the points' configs. When nil, each distinct design of
	// the points is compiled once, by its first point, with a replay table
	// its points share (see RunReports).
	Artifacts *core.Artifacts

	// OnRun, if set, receives each point's completed co-simulation (after
	// a successful run, before the point is reported done). Workers invoke
	// it concurrently; the callback synchronizes itself. Sessions use it to
	// keep the last run's SW energy cache for cache reports.
	OnRun func(i int, cs *core.CoSim)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result pairs a completed point with its index in the sweep grid.
type Result[T any] struct {
	Index int
	Value T
}

// Run executes point(ctx, i) for every i in [0, n) on a bounded worker pool
// and returns the completed results sorted by index.
//
// On success the slice has exactly n entries (indices 0..n-1) whose contents
// are independent of worker count. If a point fails, the remaining points
// are cancelled and the lowest-index error observed is returned alongside
// the points that did complete. If ctx is cancelled mid-sweep, dispatching
// stops, in-flight points are cancelled through their run context, and the
// completed (partial, index-ordered) results are returned with the
// context's error.
func Run[T any](ctx context.Context, n int, opts Options, point func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	values := make([]T, n)
	done := make([]bool, n)
	errIdx := -1 // lowest failed index
	var firstErr error
	var mu sync.Mutex // guards errIdx/firstErr

	var wg sync.WaitGroup
	jobs := make(chan int)
	workers := opts.workers(n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				v, err := point(runCtx, i)
				mu.Lock()
				if err != nil {
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					cancel() // stop dispatching the rest of the grid
				} else {
					values[i], done[i] = v, true
				}
				mu.Unlock()
			}
		}()
	}

dispatch:
	for i := 0; i < n; i++ {
		if runCtx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	out := make([]Result[T], 0, n)
	for i := 0; i < n; i++ {
		if done[i] {
			out = append(out, Result[T]{Index: i, Value: values[i]})
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// BuildFunc describes point i of a sweep: its System and its Config. The
// engine clones both before use, so points may share them; points whose
// Systems share one network (the same *cfsm.Net) are one design when they
// also agree on the partition mapping and the HW width.
type BuildFunc func(i int) (*core.System, core.Config, error)

// PointOutcome is one sweep point's result in a keep-going run: failures
// ride the outcome instead of aborting the batch.
type PointOutcome struct {
	Index  int
	Report *core.Report
	Err    error
}

// RunReports is Run specialized to co-estimations: build(i) describes point
// i, a core.CoSim per point runs it, and the full per-point estimator
// metrics (ISS instructions, gate evaluations, energy-cache hits, bus-trace
// compaction ratio) flow into the OnPoint hook. A point failure cancels the
// remaining points and the lowest-index error is returned, wrapped as
// "point %d: ...", with the completed points.
//
// The System and Config that build(i) returns are cloned before use (see
// core.System.Clone and core.Config.Clone), so builds may derive all
// points from shared ones. Without opts.Artifacts, each distinct design is
// compiled once, and its points replay each other's hardware executions
// from one table, which the call drops when it returns: points that share
// a network cost one compile, and an execution that starts from a gate
// state an earlier one started from costs no gate simulation. Reports are
// bit-identical to one cold estimation per point.
func RunReports(ctx context.Context, n int, opts Options, build BuildFunc) ([]Result[*core.Report], error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	outs, err := runPointwise(ctx, n, opts, true, build)
	results := make([]Result[*core.Report], 0, len(outs))
	for _, o := range outs {
		if o.Err == nil && o.Report != nil {
			results = append(results, Result[*core.Report]{Index: o.Index, Value: o.Report})
		}
	}
	return results, err
}

// runPointwise runs every point as one full co-simulation (a core.CoSim
// per point) over the bounded worker pool, returning outcomes in index
// order. The OnPoint hook receives the full estimator metrics.
//
// With failFast, the first (lowest-index) point error cancels the remaining
// points and is returned wrapped as "point %d: ..." alongside the outcomes
// that did complete (Sweep semantics). Without it, per-point errors ride
// the outcomes, every dispatched point yields an outcome, and only context
// cancellation produces a call-level error (EstimateBatch semantics).
func runPointwise(ctx context.Context, n int, opts Options, failFast bool, build BuildFunc) ([]PointOutcome, error) {
	ds := new(designs) // what points without opts.Artifacts compile into
	var mu sync.Mutex  // serializes OnPoint
	results, err := Run(ctx, n, opts, func(ctx context.Context, i int) (PointOutcome, error) {
		start := time.Now()
		rep, perr := runPoint(ctx, i, opts, ds, build)
		if perr != nil && failFast {
			perr = fmt.Errorf("point %d: %w", i, perr)
		}
		if opts.OnPoint != nil {
			m := PointMetrics{Index: i, Total: n, Wall: time.Since(start), Err: perr}
			if rep != nil {
				m.Fill(rep)
			}
			mu.Lock()
			opts.OnPoint(m)
			mu.Unlock()
		}
		if failFast {
			return PointOutcome{Index: i, Report: rep}, perr
		}
		// Keep-going: the failure rides the outcome, not the batch.
		return PointOutcome{Index: i, Report: rep, Err: perr}, nil
	})
	outs := make([]PointOutcome, 0, len(results))
	for _, r := range results {
		outs = append(outs, r.Value)
	}
	return outs, err
}

func runPoint(ctx context.Context, i int, opts Options, ds *designs, build BuildFunc) (*core.Report, error) {
	ctx, span := telemetry.StartSpanWith(ctx, "point", "", int64(i))
	defer span.End()
	base, cfg, err := build(i)
	if err != nil {
		return nil, err
	}
	sys, cfg := base.Clone(), cfg.Clone()
	// The first point of a design compiles it; the others rebind its
	// artifacts (waiting for the compile if it is still running). The
	// span name says which.
	art := opts.Artifacts
	buildName := "rebind"
	var d *design
	if art == nil {
		var first bool
		d, first = ds.of(base, cfg.HWWidth)
		if first {
			buildName = "compile"
		}
	}
	_, bspan := telemetry.StartSpan(ctx, buildName)
	if d != nil {
		art, err = d.compile(sys, cfg)
	}
	var cs *core.CoSim
	if err == nil {
		cs, err = core.NewShared(sys, cfg, art)
	}
	bspan.End()
	if err != nil {
		return nil, err
	}
	// The run context reaches the simulation loop: a cancelled sweep aborts
	// in-flight points within one event quantum instead of letting them run
	// to completion.
	rep, err := cs.RunContext(ctx)
	if err == nil && opts.OnRun != nil {
		opts.OnRun(i, cs)
	}
	return rep, err
}

// replayBytes caps the recorded hardware executions of one design in one
// sweep.
const replayBytes = 8 << 20

// designs are the distinct designs of one sweep's points, each compiled
// once. A design is what synthesis reads: the network, the partition
// mapping and the HW width. Priorities, DMA size and every other setting
// are run configuration.
type designs struct {
	mu sync.Mutex
	m  map[designKey]*design
}

type designKey struct {
	net     *cfsm.Net
	mapping string // per machine, in network order
	width   int
}

// design is one distinct design: its artifacts, or the error compiling it.
type design struct {
	once sync.Once
	art  *core.Artifacts
	err  error
}

// of returns the design of a point built as sys at HW width width, and
// whether this call created it (the caller compiles it).
func (ds *designs) of(sys *core.System, width int) (*design, bool) {
	mapping := make([]byte, len(sys.Net.Machines))
	for mi, m := range sys.Net.Machines {
		mapping[mi] = 0xFF // unmapped: the compile fails
		if pc, ok := sys.Procs[m.Name]; ok {
			mapping[mi] = byte(pc.Mapping)
		}
	}
	k := designKey{net: sys.Net, mapping: string(mapping), width: width}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	d, ok := ds.m[k]
	if !ok {
		if ds.m == nil {
			ds.m = make(map[designKey]*design)
		}
		d = &design{}
		ds.m[k] = d
	}
	return d, !ok
}

// compile compiles the design from a point's own clone, once, and gives it
// a replay table.
func (d *design) compile(sys *core.System, cfg core.Config) (*core.Artifacts, error) {
	d.once.Do(func() {
		d.art, d.err = core.Compile(sys, cfg)
		if d.err == nil {
			d.art.Replay = hwsyn.NewReplay(replayBytes)
		}
	})
	return d.art, d.err
}

// RunOutcomes runs every point with keep-going semantics: per-point
// failures land in their outcome, the batch continues, and the returned
// slice has one entry per dispatched point in index order. Only context
// cancellation (partial outcome set) produces a call-level error.
func RunOutcomes(ctx context.Context, n int, opts Options, build BuildFunc) ([]PointOutcome, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	return runPointwise(ctx, n, opts, false, build)
}
