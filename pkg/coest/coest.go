// Package coest is the public, importable face of the SoC power
// co-estimation framework — the stable API over the internal engine that
// the cmd/* binaries and embedding applications build on.
//
// The entry points mirror how the paper's tool is used:
//
//   - Estimate runs one power co-estimation of a system and returns its
//     energy report;
//   - Sweep runs a whole design-space grid of independent co-estimations on
//     a bounded parallel worker pool, with deterministic (serial-identical)
//     results, per-point progress metrics, and context cancellation;
//   - Session is the compile-once/estimate-many form behind long-running
//     services: the system is compiled a single time and every subsequent
//     estimation rebinds the shared read-only artifacts to a fresh clone,
//     so repeat requests skip synthesis entirely and may run concurrently.
//
// Systems come from the case-study constructors (TCPIP, ProdCons,
// Automotive), from a textual .cfsm source (ParseCFSM), or from a
// hand-built CFSM network (New over a Spec — see examples/quickstart).
// Run behavior is tuned with functional options:
//
//	rep, err := coest.Estimate(ctx, coest.TCPIP(coest.DefaultTCPIPParams()),
//	    coest.WithDMASize(32),
//	    coest.WithEnergyCache(),
//	)
//
// Failures carry typed sentinels — errors.Is(err, coest.ErrDeadlock),
// errors.Is(err, coest.ErrSimTimeExceeded) — so callers can react to the
// condition instead of parsing message strings.
package coest

import (
	"context"
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/engine"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrDeadlock: the simulation's event queue drained while queued
	// software reactions could never dispatch (the processor was held by a
	// job whose release event will never fire).
	ErrDeadlock = core.ErrDeadlock

	// ErrSimTimeExceeded: a WithDeadline-bounded run was truncated with
	// work still pending instead of finishing naturally.
	ErrSimTimeExceeded = core.ErrSimTimeExceeded
)

// System is a co-estimation subject: a CFSM network with its HW/SW
// partition and environment, plus the baseline run configuration the
// options refine. Construct with TCPIP, ProdCons, Automotive, ParseCFSM or
// New; the zero value is not usable.
//
// A System is safe for concurrent use: every estimation entry point
// (Estimate, NewSession, Sweep) clones the network first and
// simulates the clone, so the System itself is never mutated. The historic
// "may be estimated repeatedly, but not concurrently" restriction is gone —
// callers that built a fresh System per goroutine keep working, but no
// longer need to.
type System struct {
	spec *core.System
	cfg  core.Config
}

// Clone returns an independent copy of the subject: the CFSM network state
// is copied while the immutable specification, wiring and baseline
// configuration are shared. Estimation already clones internally; reach for
// Clone only when mutating a Spec by hand while another goroutine estimates.
func (s *System) Clone() *System {
	return &System{spec: s.spec.Clone(), cfg: s.cfg.Clone()}
}

// Spec is the raw co-estimation subject — the CFSM network, the partition
// assignment, and the environment stimuli. It is exposed so hand-built
// systems (see examples/quickstart) can be assembled from this package and
// the CFSM builder alone.
type Spec = core.System

// Re-exported system-assembly and report types.
type (
	ProcessConfig    = core.ProcessConfig
	Stimulus         = core.Stimulus
	PeriodicStimulus = core.PeriodicStimulus
	Report           = core.Report
	MachineReport    = core.MachineReport

	// RunConfig is the full internal run configuration, reachable through
	// the WithConfig escape hatch when no dedicated option exists.
	RunConfig = core.Config

	// AttributionSummary breaks a run's Total down by component, process,
	// bus master, costing technique and execution path
	// (Report.Attribution, via WithAttribution). It is read from the run's
	// own books, so its Total is the report's Total.
	AttributionSummary = core.Attribution
	// AuditReport is the shadow-sampling auditor's divergence record
	// (Report.Audit, via WithShadowAudit).
	AuditReport = audit.Report
	// ErrorBudget bounds the error the enabled accelerations may have
	// introduced into the run total (Report.Budget).
	ErrorBudget = audit.ErrorBudget
)

// Partition mappings for ProcessConfig.
const (
	SW = core.SW
	HW = core.HW
)

// New wraps a hand-assembled Spec with the reference configuration
// (50 MHz SPARClite, 25 MHz bus, 16-bit HW datapaths, 8 KB I-cache).
func New(spec *Spec) *System {
	return &System{spec: spec, cfg: core.DefaultConfig()}
}

// newSystem is the internal constructor for specs that carry a tailored
// baseline configuration.
func newSystem(spec *core.System, cfg core.Config) *System {
	return &System{spec: spec, cfg: cfg}
}

// Spec returns the underlying CFSM network and environment.
func (s *System) Spec() *Spec { return s.spec }

// Estimate runs one power co-estimation and returns the energy report.
//
// The context is threaded into the simulation loop: a context that is
// already done fails fast without compiling, and cancelling (or timing out)
// a running estimation aborts it within one simulation event quantum, with
// an error matching errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded). The wall-clock context is
// independent of the simulated-time deadline: WithDeadline bounds simulated
// time and fails with ErrSimTimeExceeded, never with a context error.
//
// Estimate accepts config-scope options only; run-level options
// (WithWorkers, WithProgress) fail with ErrOptionScope.
func Estimate(ctx context.Context, sys *System, opts ...Option) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, err := sys.configured("Estimate", scopeConfig, opts)
	if err != nil {
		return nil, err
	}
	cs, err := core.New(sys.spec.Clone(), cfg)
	if err != nil {
		return nil, err
	}
	return cs.RunContext(ctx)
}

// PointMetrics is the per-point observability record delivered to the
// WithProgress callback: wall time, ISS instructions retired, gate-level
// evaluations, energy-cache hit rate and bus-trace compaction ratio.
type PointMetrics = engine.PointMetrics

// Grid is a finite design space for Sweep. Build is called once per point,
// from the sweep's workers, so it may run on several goroutines at once.
// The sweep clones the returned System before simulating, so Build may
// return the same System, or Systems derived from shared state, for many
// points.
//
// Points whose Systems share one network (the same Spec().Net) and agree
// on the partition mapping and the HW width are one design: the sweep
// compiles it once, and its points replay each other's identical hardware
// executions instead of simulating them again (see Sweep). Build a grid's
// network once when its points differ only in configuration, as TCPIPGrid
// does.
type Grid struct {
	N     int
	Build func(i int) (*System, error)
}

// PointResult pairs a completed grid point with its index. Err is non-nil
// only for Session.EstimateBatch, whose per-point failures land in the
// result instead of aborting the batch; Sweep keeps its fail-fast contract
// and never returns a PointResult with a non-nil Err.
type PointResult struct {
	Index  int
	Report *Report
	Err    error
}

// Sweep estimates every point of the grid on a bounded parallel worker pool
// (WithWorkers, default GOMAXPROCS).
//
// Results are merged by grid index and are bit-identical to a serial sweep
// regardless of worker count. On success the slice has exactly grid.N
// entries in index order. If ctx is cancelled mid-sweep, dispatching stops
// promptly and the completed points are returned — still index-ordered —
// together with the context's error. If a point fails, the rest of the grid
// is cancelled and the lowest-index error is returned with the completed
// points.
//
// Options apply to every point, on top of the point's own configuration;
// Sweep accepts both config-scope and run-scope options. One-time setup is
// shared: with WithMacroModel, the macro-operation characterization runs
// once and every point reuses the table; and each distinct design of the
// grid (see Grid) is compiled once, by its first point.
//
// The points of one design also share a table of recorded hardware
// executions, which Sweep drops when it returns. An execution of a
// hardware process that starts from a gate state and input vector that an
// earlier execution of the sweep started from replays the recorded course
// — its per-cycle energies, emissions and memory requests, through the
// same bus — instead of simulating the netlist again. A replay is exact:
// where the bus serves it other data, it follows another recorded course
// that read the same data; failing that, or where the bus stalls it at a
// point the recording could not be stretched, it goes on as a real
// simulation from the state recorded there, rebuilt from the flop and
// input values the course keeps. Reports are bit-identical to one
// Estimate per point. Session.EstimateBatch replays the same way, from a
// table that lives as long as its session; Estimate and Session.Estimate
// do not replay.
func Sweep(ctx context.Context, grid Grid, opts ...Option) ([]PointResult, error) {
	st := newSettings(nil)
	if err := st.applyAll("Sweep", scopeConfig|scopeRun, opts); err != nil {
		return nil, err
	}
	results, err := engine.RunReports(ctx, grid.N,
		engine.Options{Workers: st.workers, OnPoint: st.onPoint},
		func(i int) (*core.System, core.Config, error) {
			sys, err := grid.Build(i)
			if err != nil {
				return nil, core.Config{}, err
			}
			cfg, err := sys.configured("Sweep", scopeConfig|scopeRun, opts)
			if err != nil {
				return nil, core.Config{}, err
			}
			return sys.spec, cfg, nil
		})
	out := make([]PointResult, 0, len(results))
	for _, r := range results {
		out = append(out, PointResult{Index: r.Index, Report: r.Value})
	}
	return out, err
}

// Reports flattens a fully successful result set into the bare reports,
// indexed by grid point. Points that failed (Session.EstimateBatch) carry a
// nil report; use Errors for the failure side of the split.
func Reports(results []PointResult) []*Report {
	out := make([]*Report, len(results))
	for i, r := range results {
		out[i] = r.Report
	}
	return out
}

// Errors collects the failed points of a result set as errors wrapped with
// their grid indices, or nil when every point succeeded — the companion of
// Reports, so callers stop hand-rolling the report/error split. Each
// returned error unwraps to the point's own failure (errors.Is sees
// through the index wrapper).
func Errors(results []PointResult) []error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("point %d: %w", r.Index, r.Err))
		}
	}
	return errs
}
