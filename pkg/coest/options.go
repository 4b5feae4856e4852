package coest

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/engine"
	"repro/internal/iss"
	"repro/internal/macromodel"
	"repro/internal/units"
)

// Re-exported acceleration parameter types.
type (
	// ECacheParams tunes the §4.2 energy/delay cache aggressiveness.
	ECacheParams = ecache.Params
	// SamplingParams tunes the §4.3 reaction-level statistical sampling.
	SamplingParams = core.SamplingParams
	// MacroTable is a characterized software power macro-model (§4.1).
	MacroTable = macromodel.Table
	// ShadowAuditParams tunes the shadow-sampling auditor (rate, divergence
	// threshold, auto-invalidation).
	ShadowAuditParams = audit.Params
)

// settings is the resolved option set for one Estimate or Sweep call.
type settings struct {
	cfg     *core.Config // nil when only run-level fields are harvested
	workers int
	onPoint func(PointMetrics)
	macro   bool // characterize-and-share a macro table at run time
	err     error
}

func newSettings(cfg *core.Config) *settings { return &settings{cfg: cfg} }

func (st *settings) config(mutate func(*core.Config)) {
	if st.cfg != nil {
		mutate(st.cfg)
	}
}

func (st *settings) fail(err error) {
	if st.err == nil {
		st.err = err
	}
}

// optionScope classifies where an option may legally appear.
type optionScope uint8

const (
	// scopeConfig options refine the configuration of one estimation run;
	// they are valid on every entry point.
	scopeConfig optionScope = 1 << iota
	// scopeRun options steer a multi-point run — worker-pool width,
	// progress callbacks. They are valid on Sweep and
	// Session.EstimateBatch only; passing one to Estimate, NewSession or
	// Session.Estimate fails with ErrOptionScope.
	scopeRun
)

// Option refines how a system is estimated. Options are applied in order;
// later options win on conflict. Every option carries its scope: config
// options (accelerations, deadlines, models, trace sinks) apply everywhere,
// run options (WithWorkers, WithProgress) apply only to
// multi-point calls, and misuse is rejected with a typed ErrOptionScope
// error instead of being silently ignored. The zero Option is a no-op.
type Option struct {
	name  string
	scope optionScope
	apply func(*settings)
}

// configOption wraps a per-run configuration mutator.
func configOption(name string, apply func(*settings)) Option {
	return Option{name: name, scope: scopeConfig, apply: apply}
}

// runOption wraps a run-level (multi-point) option.
func runOption(name string, apply func(*settings)) Option {
	return Option{name: name, scope: scopeRun, apply: apply}
}

// applyAll validates every option against the calling context and applies
// the survivors in order. call names the entry point for error messages.
func (st *settings) applyAll(call string, allowed optionScope, opts []Option) error {
	for _, o := range opts {
		if o.apply == nil {
			continue // zero Option
		}
		if o.scope&allowed == 0 {
			return &OptionScopeError{Option: o.name, Call: call}
		}
		o.apply(st)
	}
	if st.err != nil {
		return fmt.Errorf("coest: %w", st.err)
	}
	return nil
}

// resolveMacro characterizes (or fetches) the shared macro table when
// WithMacroModel asked for run-time characterization.
func (st *settings) resolveMacro() error {
	if !st.macro || st.cfg == nil || st.cfg.Accel.MacromodelTable != nil {
		return nil
	}
	tbl, err := engine.SharedMacroTable(st.cfg.Timing, st.cfg.Power)
	if err != nil {
		return fmt.Errorf("coest: macro-model characterization: %w", err)
	}
	st.cfg.Accel.Macromodel = true
	st.cfg.Accel.MacromodelTable = tbl
	return nil
}

// configured resolves the option list against the system's baseline
// configuration, yielding the per-run Config. allowed bounds the option
// scopes the calling entry point accepts.
func (s *System) configured(call string, allowed optionScope, opts []Option) (core.Config, error) {
	cfg := s.cfg.Clone()
	st := newSettings(&cfg)
	if err := st.applyAll(call, allowed, opts); err != nil {
		return core.Config{}, err
	}
	if err := st.resolveMacro(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// WithDMASize sets the bus DMA block size in words — the communication-
// architecture axis of the paper's Tables 1-2 and Fig 7.
func WithDMASize(words int) Option {
	return configOption("WithDMASize", func(st *settings) {
		if words <= 0 {
			st.fail(fmt.Errorf("DMA size %d must be positive", words))
			return
		}
		st.config(func(c *core.Config) { c.Bus.DMASize = words })
	})
}

// WithEnergyCache enables energy & delay caching (§4.2) with the default
// per-path thresholds.
func WithEnergyCache() Option { return WithEnergyCacheParams(ecache.DefaultParams()) }

// WithEnergyCacheParams enables energy & delay caching with explicit
// aggressiveness thresholds.
func WithEnergyCacheParams(p ECacheParams) Option {
	return configOption("WithEnergyCacheParams", func(st *settings) {
		st.config(func(c *core.Config) {
			c.Accel.ECache = true
			c.Accel.ECacheParams = p
		})
	})
}

// WithMacroModel enables software power macro-modeling (§4.1). The
// macro-operation library is characterized on the ISS the first time it is
// needed and shared process-wide afterwards — a Sweep characterizes once,
// not once per point.
func WithMacroModel() Option {
	return configOption("WithMacroModel", func(st *settings) { st.macro = true })
}

// WithMacroModelTable enables macro-modeling with a pre-characterized table
// (e.g. loaded from a POLIS-style parameter file), skipping
// characterization entirely.
func WithMacroModelTable(tbl *MacroTable) Option {
	return configOption("WithMacroModelTable", func(st *settings) {
		if tbl == nil {
			st.fail(fmt.Errorf("nil macro-model table"))
			return
		}
		st.config(func(c *core.Config) {
			c.Accel.Macromodel = true
			c.Accel.MacromodelTable = tbl
		})
	})
}

// WithMacroModelParams enables macro-modeling from a parsed parameter file
// (see ParseParamFile), building the cost table against the run's timing
// model and skipping on-ISS characterization.
func WithMacroModelParams(pf *ParamFile) Option {
	return configOption("WithMacroModelParams", func(st *settings) {
		if pf == nil {
			st.fail(fmt.Errorf("nil parameter file"))
			return
		}
		st.config(func(c *core.Config) {
			tbl, err := macromodel.FromParamFile(pf, c.Timing.Clock)
			if err != nil {
				st.fail(err)
				return
			}
			c.Accel.Macromodel = true
			c.Accel.MacromodelTable = tbl
		})
	})
}

// WithSampling enables reaction-level statistical sampling (§4.3) with the
// default warmup/ratio.
func WithSampling() Option { return WithSamplingParams(core.DefaultSampling()) }

// WithSamplingParams enables statistical sampling with an explicit
// warmup/ratio.
func WithSamplingParams(p SamplingParams) Option {
	return configOption("WithSamplingParams", func(st *settings) {
		st.config(func(c *core.Config) {
			c.Accel.Sampling = true
			c.Accel.SamplingParams = p
		})
	})
}

// WithBusCompaction estimates bus energy from a K-memory-compacted grant
// trace (§4.3 applied to the bus estimator): windows of k grants keep one
// in ratio.
func WithBusCompaction(k, ratio int) Option {
	return configOption("WithBusCompaction", func(st *settings) {
		st.config(func(c *core.Config) {
			c.Accel.BusCompaction = true
			c.Accel.BusCompactionParams.K = k
			c.Accel.BusCompactionParams.Ratio = ratio
		})
	})
}

// WithSeparateEstimation switches the run to the §2 baseline: a
// timing-independent behavioral simulation whose per-component traces are
// estimated in isolation (the configuration the paper shows under-estimates
// timing-sensitive components).
func WithSeparateEstimation() Option {
	return configOption("WithSeparateEstimation", func(st *settings) {
		st.config(func(c *core.Config) { c.Mode = core.Separate })
	})
}

// WithDSPModel swaps in the data-dependent DSP-flavored instruction power
// model, where instruction energy varies with operand values (the Fig 4
// path-variance study).
func WithDSPModel() Option {
	return configOption("WithDSPModel", func(st *settings) {
		st.config(func(c *core.Config) { c.Power = iss.DSPModel() })
	})
}

// WithMaxSimTime bounds the simulated time. Hitting the bound is a normal
// truncation (use WithDeadline to make it an error).
func WithMaxSimTime(d time.Duration) Option {
	return configOption("WithMaxSimTime", func(st *settings) {
		st.config(func(c *core.Config) {
			c.MaxSimTime = units.Time(d.Nanoseconds())
			c.StrictDeadline = false
		})
	})
}

// WithDeadline bounds the simulated time and makes hitting the bound with
// work still pending an error: the run fails with ErrSimTimeExceeded
// instead of returning a silently truncated report.
func WithDeadline(d time.Duration) Option {
	return configOption("WithDeadline", func(st *settings) {
		st.config(func(c *core.Config) {
			c.MaxSimTime = units.Time(d.Nanoseconds())
			c.StrictDeadline = true
		})
	})
}

// WithWaveform enables power-waveform recording at the given time
// resolution (simulated time per bucket).
func WithWaveform(bucket time.Duration) Option {
	return configOption("WithWaveform", func(st *settings) {
		st.config(func(c *core.Config) { c.WaveformBucket = units.Time(bucket.Nanoseconds()) })
	})
}

// WithWorkers bounds the worker pool of a multi-point run — Sweep or
// Session.EstimateBatch (0 or negative = GOMAXPROCS). It is a run-level
// option: passing it to a single estimation (Estimate, NewSession,
// Session.Estimate) fails with ErrOptionScope.
func WithWorkers(n int) Option {
	return runOption("WithWorkers", func(st *settings) { st.workers = n })
}

// WithProgress receives one PointMetrics record per finished point, in
// completion order. Calls are serialized; the callback must not block for
// long. It is a run-level option (Sweep, Session.EstimateBatch); on a
// single estimation it fails with ErrOptionScope.
func WithProgress(fn func(PointMetrics)) Option {
	return runOption("WithProgress", func(st *settings) { st.onPoint = fn })
}

// WithAttribution enables the hierarchical energy attribution ledger: every
// energy accrual of the run is booked per process, execution path, bus
// master and component, and the rollup is attached to the report as
// Report.Attribution. The ledger consumes the same accrual events that feed
// Report.Total, so its component totals reconcile with the run total.
func WithAttribution() Option {
	return configOption("WithAttribution", func(st *settings) {
		st.config(func(c *core.Config) { c.Attribution = true })
	})
}

// WithShadowAudit enables the shadow-sampling auditor at the given rate
// (0 < rate <= 1): that fraction of reactions served from the energy cache
// or the macro-model table is also run through the reference ISS/gate
// estimator, and the divergence is recorded per technique in Report.Audit.
// Audited entries drifting past the default threshold are flagged;
// reference observations are folded back into the cache (continuous
// re-characterization). Use WithShadowAuditParams for threshold and
// auto-invalidation control.
func WithShadowAudit(rate float64) Option {
	return WithShadowAuditParams(audit.DefaultParams(rate))
}

// WithShadowAuditParams enables shadow auditing with explicit parameters.
func WithShadowAuditParams(p ShadowAuditParams) Option {
	return configOption("WithShadowAuditParams", func(st *settings) {
		st.config(func(c *core.Config) { c.ShadowAudit = p })
	})
}

// WithConfig is the escape hatch to the full internal run configuration,
// for knobs without a dedicated option. It runs after the options before
// it, in order with those after it.
func WithConfig(mutate func(*RunConfig)) Option {
	return configOption("WithConfig", func(st *settings) { st.config(mutate) })
}
