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
//   - expensive one-time setup (macro-model characterization) is shared
//     across all points instead of being repeated per point;
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

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of concurrent co-estimations. Zero or
	// negative means runtime.GOMAXPROCS(0). The pool never runs more
	// workers than there are points.
	Workers int

	// OnPoint, if set, receives one metrics record per finished point, in
	// completion order (not index order). Calls are serialized by the
	// engine, so the callback does not need its own locking; it must not
	// block for long, since it is on the workers' critical path.
	// Only RunReports populates estimator metrics; the generic Run fills
	// index, wall time and error.
	OnPoint func(PointMetrics)

	// Artifacts, if set, are compile-once synthesis products every point
	// rebinds instead of recompiling (the warm-session path). They must
	// have been built from the same system with the same HWWidth as the
	// points' configs.
	Artifacts *core.Artifacts

	// OnRun, if set, receives each point's completed co-simulation (after
	// a successful run, before the point is reported done). Workers invoke
	// it concurrently; the callback synchronizes itself. Sessions use it to
	// retain the last run for cache-report inspection.
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
	var mu sync.Mutex // guards errIdx/firstErr and OnPoint serialization

	var wg sync.WaitGroup
	jobs := make(chan int)
	workers := opts.workers(n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
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
				if opts.OnPoint != nil {
					opts.OnPoint(PointMetrics{
						Index: i, Total: n,
						Wall: time.Since(start),
						Err:  err,
					})
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

// BuildFunc describes point i of a sweep: a fresh System (simulations
// mutate network state, so points cannot share one) and the point's Config
// (cloned by the engine before use).
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
// build(i) must return a fresh System on every call — simulations mutate the
// CFSM network state, so points cannot share one System value. The returned
// Config is cloned by the engine before use (see core.Config.Clone), so
// builds may derive all points from one shared base Config.
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
	hook := opts.OnPoint
	inner := opts
	inner.OnPoint = nil // fired below with full estimator metrics instead
	var mu sync.Mutex
	results, err := Run(ctx, n, inner, func(ctx context.Context, i int) (PointOutcome, error) {
		start := time.Now()
		rep, perr := runPoint(ctx, i, opts, build)
		if perr != nil && failFast {
			perr = fmt.Errorf("point %d: %w", i, perr)
		}
		if hook != nil {
			m := PointMetrics{Index: i, Total: n, Wall: time.Since(start), Err: perr}
			if rep != nil {
				m.Fill(rep)
			}
			mu.Lock()
			hook(m)
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

func runPoint(ctx context.Context, i int, opts Options, build BuildFunc) (*core.Report, error) {
	ctx, span := telemetry.StartSpanWith(ctx, "point", "", int64(i))
	defer span.End()
	sys, cfg, err := build(i)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Clone()
	// Cold points compile (synthesize SW image + HW netlists); warm points
	// rebind the session's shared artifacts. The span name says which.
	buildName := "compile"
	if opts.Artifacts != nil {
		buildName = "rebind"
	}
	_, bspan := telemetry.StartSpan(ctx, buildName)
	cs, err := core.NewShared(sys, cfg, opts.Artifacts)
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
