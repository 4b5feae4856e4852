package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/attrib"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cachesim"
	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/gate"
	"repro/internal/hwsyn"
	"repro/internal/iss"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/sparc"
	"repro/internal/stats"
	"repro/internal/swsyn"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Master-level metrics on the process-wide registry (sweeps aggregate
// across concurrent points; counters are atomic).
var (
	mRuns        = telemetry.Default.Counter("coest_runs_total", "co-estimation runs started")
	mReactions   = telemetry.Default.Counter("coest_reactions_total", "CFSM reactions dispatched")
	mTruncations = telemetry.Default.Counter("coest_deadline_truncations_total", "runs truncated at MaxSimTime with events still scheduled")

	// Compilation-work counters: incremented only when the real synthesizer
	// runs, never on the artifact-rebind warm path. Warm-session tests
	// assert zero growth across repeat requests.
	mSWCompiles  = telemetry.Default.Counter("coest_sw_compiles_total", "software partition compilations (swsyn)")
	mHWSyntheses = telemetry.Default.Counter("coest_hw_syntheses_total", "hardware module syntheses (hwsyn)")
)

// ObservedEvent is one event that crossed the system boundary to the
// environment during simulation.
type ObservedEvent struct {
	Name  string
	Time  units.Time
	Value cfsm.Value
}

// hwExec is the per-HW-machine execution state.
type hwExec struct {
	driver  *hwsyn.Driver
	busy    bool
	pending int
	stale   bool // registers out of sync (a cached skip happened)
}

// sampleState is the per-path reaction-sampling record (§4.3).
type sampleState struct {
	seen        uint64
	sinceSample uint64
	skipped     uint64 // total skipped dispatches (error-budget exposure)
	cycles      stats.Running
	energy      stats.Running
}

// recorded is one reaction captured for the separate-estimation baseline.
type recorded struct {
	machine int
	r       *cfsm.Reaction
	preVars []cfsm.Value
}

// record captures reaction r of machine mi, and the variables before it,
// for the separate-estimation baseline. It keeps owned copies: r and
// preVars live in the machine's buffers, which its next reaction reuses.
func (cs *CoSim) record(mi int, r *cfsm.Reaction, preVars []cfsm.Value) {
	cs.trace = append(cs.trace, recorded{
		machine: mi,
		r:       r.Copy(),
		preVars: append([]cfsm.Value(nil), preVars...),
	})
}

// machineBufs are one machine's buffers, reused by each of its reactions.
// Like the reaction itself (cfsm.Reaction), what they hold is valid until
// the machine's next reaction.
type machineBufs struct {
	preVars []cfsm.Value // the variables before the reaction
	groups  []busGroup   // the reaction's MemOps coalesced into transfers
	words   []uint32     // the data words the groups slice into
}

// CoSim is one configured co-estimation run.
type CoSim struct {
	cfg Config
	sys *System

	kernel *sim.Kernel
	shared *SharedMemory
	bus    *bus.Bus
	icache *cachesim.Cache
	sched  *rtos.Scheduler
	cpu    *iss.CPU
	image  *swsyn.Compiled
	boot   *iss.Image // image made ready for cpu (see Artifacts.boot)

	procs  []ProcessConfig // by machine index
	swIdx  map[int]int     // machine index -> image machine index
	hw     map[int]*hwExec
	swSync map[int]bool // machine index -> ISS vars stale

	swCache *ecache.Cache
	hwCache *ecache.Cache
	// Base snapshots of the cache counters at construction, so a run that
	// shares a persistent session cache still reports its own activity
	// (Report.SWECache/HWECache are deltas against these).
	swCacheBase ecache.Stats
	hwCacheBase ecache.Stats
	samples     map[ecache.Key]*sampleState

	wave *Waveform

	machineEnergy   []units.Energy
	machineWait     []units.Energy
	machineCycles   []uint64
	machineReact    []uint64
	machineEstCalls []uint64
	transEnergy     [][]units.Energy // [machine][transition]
	transCount      [][]uint64
	cacheEnergy     units.Energy
	rtosEnergy      units.Energy

	issCalls  uint64
	gateExecs uint64

	// trc is the typed event stream; nil (the no-op tracer) when
	// Config.Sink is unset and no attribution ledger is attached.
	trc *telemetry.Tracer

	// spans is the request-trace scope extracted once from RunContext's
	// context; nil (every method a no-op) when the run is not traced, so
	// the ISS/gate/ecache hot paths stay allocation-free.
	spans *telemetry.SpanScope

	// ledger consumes the run's event stream into energy attribution
	// rollups (Config.Attribution); nil when attribution is off.
	// KindEnergyAttributed events are only emitted while it is attached.
	ledger *attrib.Ledger

	// audit is the shadow-sampling auditor (Config.ShadowAudit); the nil
	// auditor is disabled and costs nothing on the hot path.
	audit *audit.Auditor

	envOut []ObservedEvent
	trace  []recorded // Separate mode only

	// Run-owned buffers and free lists the master reuses reaction after
	// reaction, so a warm run allocates only while they grow.
	bufs           []machineBufs // by machine index
	fetch          []swsyn.Range // the I-fetch trace of the current reaction
	outbox         []cfsm.Emission
	freeJobs       []*swJob
	freeReqs       []*swBusReq
	freeDeliveries []*delivery

	sepBusEnergy units.Energy
	sepBusStats  bus.Stats

	err error
}

// New builds a co-simulation for the system under the given configuration:
// the software partition is synthesized and compiled into one SPARC image,
// every hardware process is synthesized to a gate netlist, and the bus,
// cache, RTOS and estimator stack are instantiated (Fig 2(a), the
// compilation flow).
func New(sys *System, cfg Config) (*CoSim, error) {
	return NewShared(sys, cfg, nil)
}

// NewShared is New with optional pre-built synthesis artifacts: when art is
// non-nil the software image and hardware modules are rebound to this run's
// machines instead of being recompiled — the warm path of an estimation
// session (compile once, estimate many). sys must be a clone of the system
// the artifacts were built from (same machines, same order), and
// cfg.HWWidth must match the artifacts' width.
func NewShared(sys *System, cfg Config, art *Artifacts) (*CoSim, error) {
	if art != nil && art.HWWidth != cfg.HWWidth {
		return nil, fmt.Errorf("core: artifacts built for HW width %d, config wants %d", art.HWWidth, cfg.HWWidth)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	cs := &CoSim{
		cfg:     cfg,
		sys:     sys,
		kernel:  sim.NewKernel(),
		shared:  NewSharedMemory(),
		swIdx:   make(map[int]int),
		hw:      make(map[int]*hwExec),
		swSync:  make(map[int]bool),
		samples: make(map[ecache.Key]*sampleState),
	}
	// The attribution ledger, when enabled, is one more fan-out target of
	// the run's event stream.
	sink := cfg.Sink
	if cfg.Attribution {
		infos := make([]attrib.MachineInfo, len(sys.Net.Machines))
		for mi, m := range sys.Net.Machines {
			infos[mi] = attrib.MachineInfo{Name: m.Name, HW: sys.Procs[m.Name].Mapping == HW}
		}
		cs.ledger = attrib.NewLedger(infos)
		sink = telemetry.Multi(sink, cs.ledger)
	}
	cs.trc = telemetry.NewTracer(sink)
	cs.audit = audit.New(cfg.ShadowAudit)
	n := len(sys.Net.Machines)
	cs.bufs = make([]machineBufs, n)
	cs.procs = make([]ProcessConfig, n)
	cs.machineEnergy = make([]units.Energy, n)
	cs.machineWait = make([]units.Energy, n)
	cs.machineCycles = make([]uint64, n)
	cs.machineReact = make([]uint64, n)
	cs.machineEstCalls = make([]uint64, n)
	cs.transEnergy = make([][]units.Energy, n)
	cs.transCount = make([][]uint64, n)
	for mi, m := range sys.Net.Machines {
		cs.transEnergy[mi] = make([]units.Energy, len(m.Transitions))
		cs.transCount[mi] = make([]uint64, len(m.Transitions))
	}

	if cfg.WaveformBucket > 0 {
		cs.wave = NewWaveform(cfg.WaveformBucket)
	}

	// Partition.
	var swMachines []*cfsm.CFSM
	for mi, m := range sys.Net.Machines {
		pc, ok := sys.Procs[m.Name]
		if !ok {
			return nil, fmt.Errorf("core: no partition for %q", m.Name)
		}
		cs.procs[mi] = pc
		if pc.Mapping == SW {
			cs.swIdx[mi] = len(swMachines)
			swMachines = append(swMachines, m)
		}
	}

	// Software synthesis + ISS (or a rebind of the session's shared image,
	// started from the session's boot image), in a recycled memory.
	if len(swMachines) > 0 {
		img, err := rebindSW(art, swMachines)
		if err != nil {
			return nil, err
		}
		cs.image = img
		if art != nil && art.boot != nil && art.boot.Timing == cfg.Timing {
			cs.boot = art.boot
		} else {
			cs.boot = iss.NewImage(img.Prog, cfg.Timing, img.InitMemory)
		}
		cs.cpu = iss.New(cfg.Timing, cfg.Power, takeMem())
		cs.cpu.Reset(swsyn.StackTop)
		cs.cpu.LoadImage(cs.boot)
	}

	// Hardware synthesis + gate simulators (modules may come rebound from
	// the session's artifacts, compiled gate program included; only the
	// simulator's run state is per run).
	for mi, m := range sys.Net.Machines {
		if cs.procs[mi].Mapping != HW {
			continue
		}
		mod, err := rebindHW(art, m, &cfg)
		if err != nil {
			return nil, err
		}
		cs.hw[mi] = &hwExec{driver: hwsyn.NewDriver(mod, cfg.HWVdd)}
	}

	// Integration architecture. The priority map is copied before defaults
	// are filled in so New never mutates the caller's Config — sweep workers
	// may share one base Config across concurrent points (see Config.Clone).
	busCfg := cfg.Bus
	busCfg.Priority = make(map[int]int, len(sys.Net.Machines))
	for mi, prio := range cfg.Bus.Priority {
		busCfg.Priority[mi] = prio
	}
	for mi := range sys.Net.Machines {
		if _, set := busCfg.Priority[mi]; !set {
			busCfg.Priority[mi] = cs.procs[mi].Priority
		}
	}
	b, err := bus.New(cs.kernel, busCfg)
	if err != nil {
		return nil, err
	}
	cs.bus = b
	b.SetTracer(cs.trc)
	if cfg.Accel.BusCompaction || cfg.KeepBusTrace {
		b.KeepTrace(true)
	}

	if cfg.ICache {
		c, err := takeCache(cfg.ICacheCfg)
		if err != nil {
			return nil, err
		}
		cs.icache = c
	}

	rcfg := cfg.RTOS
	if cfg.Mode == Separate {
		rcfg.DispatchCycles = 0 // untimed behavioral simulation
	}
	cs.sched = rtos.New(cs.kernel, rcfg)

	if cfg.Accel.ECache {
		// A session may inject persistent caches that outlive this run
		// (Config.SWECache/HWECache); otherwise the caches start cold.
		if cs.swCache = cfg.SWECache; cs.swCache == nil {
			cs.swCache = ecache.New(cfg.Accel.ECacheParams)
		}
		if cs.hwCache = cfg.HWECache; cs.hwCache == nil {
			cs.hwCache = ecache.New(cfg.Accel.ECacheParams)
		}
		cs.swCacheBase = cs.swCache.Stats()
		cs.hwCacheBase = cs.hwCache.Stats()
	} else if cfg.Accel.Macromodel {
		// Macro-modeling raises both partitions to pre-characterized cost
		// tables (§4.1: "the approach in the case of hardware is quite
		// similar"): each HW path is characterized by its first gate-level
		// execution and costed by table lookup afterwards.
		cs.hwCache = ecache.New(ecache.Params{
			ThreshCalls:    1,
			ThreshVariance: math.Inf(1),
		})
	}

	// Shared memory image.
	for a, v := range sys.SharedInit {
		cs.shared.Poke(a, v)
	}
	sys.Net.Reset()
	return cs, nil
}

// Kernel exposes the simulation master's clock (tests and reports).
func (cs *CoSim) Kernel() *sim.Kernel { return cs.kernel }

// Shared exposes the behavioral shared memory.
func (cs *CoSim) Shared() *SharedMemory { return cs.shared }

// BusTrace returns the recorded grant trace (enable with KeepBusTrace).
func (cs *CoSim) BusTrace() []bus.Grant { return cs.bus.Trace() }

// SWProgram returns the synthesized SPARC program image of the software
// partition (nil when there are no software processes), for disassembly and
// inspection.
func (cs *CoSim) SWProgram() *sparc.Program {
	if cs.image == nil {
		return nil
	}
	return cs.image.Prog
}

// HWNetlists returns the synthesized gate-level netlist of every hardware
// process, by machine name (for inspection or Verilog export).
func (cs *CoSim) HWNetlists() map[string]*gate.Netlist {
	out := make(map[string]*gate.Netlist, len(cs.hw))
	for mi, ex := range cs.hw {
		out[cs.sys.Net.Machines[mi].Name] = ex.driver.Mod.N
	}
	return out
}

// scheduleStimuli installs all environment events.
func (cs *CoSim) scheduleStimuli() {
	for _, st := range cs.sys.Stimuli {
		st := st
		cs.kernel.At(st.At, func() {
			if st.Do != nil {
				st.Do(cs.shared)
			}
			cs.deliverEnv(st.Input, st.Value)
		})
	}
	for _, p := range cs.sys.Periodic {
		p := p
		var stop func()
		stop = cs.kernel.Ticker(p.Period, func(n uint64) {
			if p.Count > 0 && n >= uint64(p.Count) {
				stop()
				return
			}
			cs.deliverEnv(p.Input, cfsm.Value(n))
		})
	}
}

func (cs *CoSim) deliverEnv(name string, v cfsm.Value) {
	dests := cs.sys.Net.EnvDest(name)
	if len(dests) == 0 {
		cs.fail(fmt.Errorf("core: stimulus %q has no destination", name))
		return
	}
	for _, d := range dests {
		cs.sys.Net.Machines[d.Machine].Post(d.Port, v)
		cs.activate(d.Machine)
	}
}

func (cs *CoSim) fail(err error) {
	if cs.err == nil {
		cs.err = err
		cs.kernel.Stop()
	}
}

// emitReaction announces a dispatched reaction on the event stream.
func (cs *CoSim) emitReaction(mi int, r *cfsm.Reaction, cycles uint64, energy units.Energy, dur units.Time) {
	m := cs.sys.Net.Machines[mi]
	cs.trc.Emit(telemetry.Event{
		Time:       cs.kernel.Now(),
		Kind:       telemetry.KindReactionDispatched,
		Component:  m.Name,
		Machine:    mi,
		Transition: r.TransIdx,
		Name:       m.Transitions[r.TransIdx].Name,
		Path:       uint64(r.Path),
		Cycles:     cycles,
		Energy:     energy,
		Dur:        dur,
	})
}

// emitECache reports an energy-cache lookup outcome on the event stream,
// and as a zero-duration tick on the request trace when one is attached.
func (cs *CoSim) emitECache(mi int, r *cfsm.Reaction, hit bool) {
	kind := telemetry.KindECacheMiss
	name := "ecache-miss"
	if hit {
		kind = telemetry.KindECacheHit
		name = "ecache-hit"
	}
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: kind,
		Component: cs.sys.Net.Machines[mi].Name, Machine: mi, Path: uint64(r.Path),
	})
	cs.spans.Instant(name, cs.sys.Net.Machines[mi].Name, int64(r.Path))
}

// emitAttrib books one energy accrual on the event stream for the
// attribution ledger. Gated on the ledger so runs without attribution
// keep their traces (and hot path) unchanged; mi is -1 for shared
// components, whose source label routes them in the ledger.
func (cs *CoSim) emitAttrib(mi int, source string, path uint64, e units.Energy) {
	if cs.ledger == nil {
		return
	}
	comp := source
	if mi >= 0 {
		comp = cs.sys.Net.Machines[mi].Name
	}
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindEnergyAttributed,
		Component: comp, Machine: mi, Name: source, Path: path, Energy: e,
	})
}

// emitShadow announces one shadow-audited serve on the event stream.
func (cs *CoSim) emitShadow(mi int, r *cfsm.Reaction, tech string, served, ref units.Energy, refCycles uint64) {
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindShadowAudit,
		Component: cs.sys.Net.Machines[mi].Name, Machine: mi, Name: tech,
		Path: uint64(r.Path), Cycles: refCycles, Energy: ref, Served: served,
	})
}

// activate pokes a machine: SW machines go through the RTOS, HW machines
// start (or queue on) their engine.
func (cs *CoSim) activate(mi int) {
	if cs.procs[mi].Mapping == SW {
		cs.activateSW(mi)
		return
	}
	cs.activateHW(mi)
}

// deliver routes a reaction's emissions to their destinations after the
// event propagation delay, and records environment outputs.
func (cs *CoSim) deliver(srcMachine int, r *cfsm.Reaction) {
	now := cs.kernel.Now()
	src := cs.sys.Net.Machines[srcMachine]
	for _, em := range r.Emits {
		cs.trc.Emit(telemetry.Event{
			Time: now, Kind: telemetry.KindEventEmitted,
			Component: src.Name, Machine: srcMachine,
			Name: src.OutputNames[em.Port], Value: int64(em.Value),
		})
		for _, name := range cs.sys.Net.EnvNames(srcMachine, em.Port) {
			cs.envOut = append(cs.envOut, ObservedEvent{Name: name, Time: now, Value: em.Value})
		}
		for _, d := range cs.sys.Net.Fanout(srcMachine, em.Port) {
			dv := reuse(&cs.freeDeliveries)
			if dv == nil {
				dv = &delivery{cs: cs}
				dv.fire = dv.arrive
			}
			dv.dest, dv.v = d, em.Value
			cs.kernel.After(cs.cfg.EventDelay, dv.fire)
		}
	}
}

// delivery is one emitted event on its way to a destination port. It is
// recycled through CoSim.freeDeliveries; fire is arrive bound once, when
// the record is made.
type delivery struct {
	cs   *CoSim
	dest cfsm.Dest
	v    cfsm.Value
	fire func()
}

func (dv *delivery) arrive() {
	cs, d, v := dv.cs, dv.dest, dv.v
	cs.freeDeliveries = append(cs.freeDeliveries, dv)
	cs.sys.Net.Machines[d.Machine].Post(d.Port, v)
	cs.activate(d.Machine)
}

// busGroup is one coalesced run of a reaction's memory accesses.
type busGroup struct {
	addr  uint32 // word address
	data  []uint32
	write bool
}

// groupMemOps coalesces a reaction's memory accesses into bus transfers:
// each run of same-direction accesses to consecutive words is one group.
// The groups and their data are built in b's buffers.
func (b *machineBufs) groupMemOps(ops []cfsm.MemAccess) []busGroup {
	b.words = b.words[:0]
	for _, op := range ops {
		b.words = append(b.words, uint32(op.Data))
	}
	b.groups = b.groups[:0]
	start := 0
	for i, op := range ops {
		if n := len(b.groups); n > 0 {
			g := &b.groups[n-1]
			if g.write == op.Write && op.Addr == g.addr+uint32(len(g.data)) {
				g.data = b.words[start : i+1 : i+1]
				continue
			}
		}
		start = i
		b.groups = append(b.groups, busGroup{addr: op.Addr, data: b.words[i : i+1 : i+1], write: op.Write})
	}
	return b.groups
}

// Run executes the co-estimation and returns the report.
func (cs *CoSim) Run() (*Report, error) {
	return cs.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation (or a context deadline)
// aborts the simulation between two discrete events — within one event
// quantum, not at end of run — and returns an error wrapping the context's
// cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold as appropriate. The
// wall-clock context is independent of the simulated-time deadline
// (Config.MaxSimTime / ErrSimTimeExceeded): a run can fail either way, and
// the two error families never mix. Background (and any context that can
// no longer be cancelled) takes the poll-free fast path.
func (cs *CoSim) RunContext(ctx context.Context) (*Report, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run not started: %w", context.Cause(ctx))
	}
	mRuns.Inc()
	defer cs.recycle()
	cs.spans = telemetry.SpanScopeFrom(ctx)
	cs.scheduleStimuli()
	interrupted := cs.kernel.RunUntilInterrupted(cs.cfg.MaxSimTime, ctx.Done())
	if cs.err != nil {
		return nil, cs.err
	}
	if interrupted {
		return nil, fmt.Errorf("core: run aborted at %v: %w", cs.kernel.Now(), context.Cause(ctx))
	}
	if live := cs.kernel.LivePending(); live > 0 {
		if cs.cfg.StrictDeadline {
			return nil, fmt.Errorf("core: %d events still scheduled at %v: %w",
				live, cs.kernel.Now(), ErrSimTimeExceeded)
		}
		mTruncations.Inc()
		cs.trc.Emit(telemetry.Event{
			Time: cs.kernel.Now(), Kind: telemetry.KindDeadlineWarning,
			Component: "master", Machine: -1, Value: int64(live),
		})
	} else if cs.sched.Holding() && cs.sched.QueueLen() > 0 {
		return nil, fmt.Errorf("core: processor held with %d reactions queued at %v: %w",
			cs.sched.QueueLen(), cs.kernel.Now(), ErrDeadlock)
	}
	cs.finishSampling()
	if cs.cfg.Mode == Separate {
		if err := cs.separateEstimate(); err != nil {
			return nil, err
		}
	}
	return cs.report(time.Since(start)), nil
}
