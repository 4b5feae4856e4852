// Package core implements the paper's primary contribution: the SoC power
// co-estimation framework of §3 — a discrete-event simulation master that
// concurrently and synchronously drives the component power estimators (the
// ISS for the software partition, the gate-level simulator for each hardware
// block, the behavioral bus model, and the instruction-cache simulator),
// with the acceleration techniques of §4 (energy caching, software power
// macro-modeling, statistical sampling) layered between the master and the
// estimators.
//
// It also implements the "separate estimation" baseline of §2: a
// timing-independent behavioral simulation captures per-component traces
// that are then fed to each estimator in isolation — the configuration the
// paper shows to under-estimate timing-sensitive components.
package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cachesim"
	"repro/internal/cfsm"
	"repro/internal/compact"
	"repro/internal/ecache"
	"repro/internal/iss"
	"repro/internal/macromodel"
	"repro/internal/rtos"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Mapping assigns a process to a partition.
type Mapping int

// Partition choices.
const (
	SW Mapping = iota // embedded software on the shared processor
	HW                // application-specific hardware block
)

func (m Mapping) String() string {
	if m == SW {
		return "sw"
	}
	return "hw"
}

// ProcessConfig is the per-process implementation choice.
type ProcessConfig struct {
	Mapping  Mapping
	Priority int // RTOS priority (SW) and bus-master priority; lower wins
}

// Stimulus is one environment event: at time At, the named environment
// input receives Value. Do, if set, runs just before delivery (e.g. to
// place a packet payload into shared memory).
type Stimulus struct {
	At    units.Time
	Input string
	Value cfsm.Value
	Do    func(mem *SharedMemory)
}

// PeriodicStimulus is a recurring environment event (e.g. a timer tick).
type PeriodicStimulus struct {
	Input  string
	Period units.Time
	Count  int // 0 = forever (until MaxSimTime)
}

// System is a complete co-estimation subject: the CFSM network, the HW/SW
// partition, and the environment.
type System struct {
	Name     string
	Net      *cfsm.Net
	Procs    map[string]ProcessConfig // by machine name
	Stimuli  []Stimulus
	Periodic []PeriodicStimulus

	// SharedInit pre-loads the behavioral shared memory (word addressed).
	SharedInit map[uint32]cfsm.Value
}

// Validate checks that every machine has a partition assignment.
func (s *System) Validate() error {
	if s.Net == nil || len(s.Net.Machines) == 0 {
		return fmt.Errorf("core: system %q has no machines", s.Name)
	}
	for _, m := range s.Net.Machines {
		if _, ok := s.Procs[m.Name]; !ok {
			return fmt.Errorf("core: system %q: machine %q has no partition assignment", s.Name, m.Name)
		}
	}
	return nil
}

// SamplingParams configures the §4.3 statistical-sampling acceleration at
// reaction granularity: after the first Warmup full simulations of a path,
// only one of every Ratio occurrences is dispatched to the ISS, its energy
// scaled by Ratio; delays for skipped occurrences use the path's running
// mean.
type SamplingParams struct {
	Warmup uint64
	Ratio  uint64
}

// DefaultSampling keeps one in four after three full observations.
func DefaultSampling() SamplingParams { return SamplingParams{Warmup: 3, Ratio: 4} }

// AccelConfig selects and parameterizes the acceleration techniques.
type AccelConfig struct {
	// ECache enables energy & delay caching (§4.2) for both the ISS and the
	// gate-level estimators.
	ECache       bool
	ECacheParams ecache.Params

	// Macromodel enables software power macro-modeling (§4.1): the ISS is
	// never invoked; reactions are costed from the characterized table.
	Macromodel      bool
	MacromodelTable *macromodel.Table

	// Sampling enables reaction-level statistical sampling (§4.3) for the
	// software estimator.
	Sampling       bool
	SamplingParams SamplingParams

	// BusCompaction estimates bus energy from a K-memory-compacted grant
	// trace instead of the full trace (§4.3 applied to the bus estimator).
	BusCompaction       bool
	BusCompactionParams compact.Params
}

// Mode selects co-estimation or the separate-estimation baseline.
type Mode int

// Estimation modes.
const (
	// CoEstimation runs all estimators concurrently and synchronized under
	// the DE master — the paper's contribution.
	CoEstimation Mode = iota
	// Separate runs a timing-independent behavioral simulation first,
	// captures per-component traces, then estimates each component in
	// isolation — the §2 baseline.
	Separate
)

func (m Mode) String() string {
	if m == CoEstimation {
		return "co-estimation"
	}
	return "separate"
}

// Config parameterizes one co-estimation run.
//
// Copy semantics: a Config is a value, but not every field is. Plain
// assignment shares the Bus.Priority map, the model pointers (Timing,
// Power, Accel.MacromodelTable) and the Sink, so two runs started from the
// same copied Config can race on the map and interleave on the sink. Sweep workers must therefore start from
// Clone(), which deep-copies the mutable state; the model pointers are
// treated as immutable after construction and stay shared (that sharing is
// what lets one macro-model characterization serve a whole sweep).
// The Sink also stays shared — a sink installed on a sweep's base Config
// is invoked concurrently from every worker and must be goroutine-safe
// (or nil).
type Config struct {
	Mode Mode

	Bus bus.Config

	// ICache enables the fast instruction-cache simulator for the SW
	// partition, fed from the master's static path traces.
	ICache    bool
	ICacheCfg cachesim.Config

	RTOS rtos.Config

	Timing *iss.TimingModel
	Power  *iss.PowerModel

	HWWidth int
	HWVdd   units.Voltage
	HWClock units.Frequency

	// EventDelay is the propagation latency of an inter-machine event.
	EventDelay units.Time

	// CPUIdle is the processor's idle/stall power draw while it busy-waits
	// on bus transfers (programmed I/O), charged to the owning process.
	CPUIdle units.Power

	Accel AccelConfig

	// MaxSimTime bounds the run (Forever by default).
	MaxSimTime units.Time

	// StrictDeadline makes hitting MaxSimTime with live events still
	// scheduled an error (ErrSimTimeExceeded) instead of a normal
	// truncation. Leave unset for systems that use MaxSimTime as their
	// intended observation window (e.g. a periodic workload sampled for a
	// fixed duration).
	StrictDeadline bool

	// WaveformBucket, if nonzero, enables power-waveform recording with the
	// given time resolution.
	WaveformBucket units.Time

	// Sink, if set, receives the typed simulation event stream (reaction
	// dispatches, estimator invocations, cache hits, bus grants, ...) —
	// the source-level visibility the PTOLEMY master provides in the
	// paper's tool, as structured telemetry.Event values. The run does not
	// close the sink; its owner does.
	Sink telemetry.Sink

	// Attribution attaches Report.Attribution: the report's energy broken
	// down per component, process, bus master, costing technique and
	// execution path. The master books every accrual once; with
	// attribution on it also rolls each into the technique and path
	// totals. Requires CoEstimation mode (the separate baseline estimates
	// components offline, outside the master).
	Attribution bool

	// SWECache / HWECache, when non-nil and Accel.ECache is set, are used
	// as this run's energy caches instead of fresh ones — the persistence
	// hook of a warm estimation session, which carries one cache pair
	// across many runs of the same design. A cache shared by overlapping
	// runs must be marked concurrent first (ecache.Cache.Shared). The
	// report's SWECache/HWECache stats are per-run deltas, not the
	// persistent cache's lifetime totals. Both are ignored when
	// Accel.ECache is unset.
	SWECache *ecache.Cache
	HWECache *ecache.Cache

	// ShadowAudit configures the shadow-sampling auditor: at
	// ShadowAudit.Rate, reactions served from the energy cache or the
	// macro-model table are also run through the reference ISS/gate
	// estimator and the divergence is recorded (Report.Audit). A zero rate
	// disables auditing. Requires CoEstimation mode.
	ShadowAudit audit.Params
}

// DefaultConfig returns the reference configuration: 50 MHz SPARClite,
// 25 MHz bus, 16-bit HW datapaths at 3.3 V, 8 KB I-cache, priority RTOS.
func DefaultConfig() Config {
	return Config{
		Mode:       CoEstimation,
		Bus:        bus.DefaultConfig(),
		ICache:     true,
		ICacheCfg:  cachesim.Default8K(),
		RTOS:       rtos.DefaultConfig(),
		Timing:     iss.SPARCliteTiming(),
		Power:      iss.SPARCliteModel(),
		HWWidth:    16,
		HWVdd:      3.3,
		HWClock:    25e6,
		EventDelay: 40 * units.Nanosecond,
		CPUIdle:    10 * units.Power(1e-3), // 10 mW stalled-CPU draw (clock-gated)
		MaxSimTime: units.Forever,
	}
}

// Clone returns a copy of the configuration that is safe to mutate and run
// concurrently with the original: the Bus.Priority map is deep-copied, while
// model pointers (immutable after construction) and the Sink (which must be
// goroutine-safe, see the type comment) remain shared. The sweep engine
// clones the base Config once per design point.
func (c *Config) Clone() Config {
	out := *c
	if c.Bus.Priority != nil {
		out.Bus.Priority = make(map[int]int, len(c.Bus.Priority))
		for k, v := range c.Bus.Priority {
			out.Bus.Priority[k] = v
		}
	}
	return out
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if c.Timing == nil || c.Power == nil {
		return fmt.Errorf("core: timing and power models are required")
	}
	if c.HWClock <= 0 {
		return fmt.Errorf("core: non-positive HW clock")
	}
	if c.Accel.Macromodel && c.Accel.MacromodelTable == nil {
		return fmt.Errorf("core: macromodel enabled without a characterized table")
	}
	if c.Accel.Sampling && (c.Accel.SamplingParams.Ratio == 0) {
		return fmt.Errorf("core: sampling enabled with zero ratio")
	}
	if c.Accel.BusCompaction {
		if err := c.Accel.BusCompactionParams.Validate(); err != nil {
			return err
		}
	}
	if err := c.ShadowAudit.Validate(); err != nil {
		return err
	}
	if c.Mode != CoEstimation && (c.Attribution || c.ShadowAudit.Rate > 0) {
		return fmt.Errorf("core: attribution and shadow auditing require co-estimation mode")
	}
	return nil
}
