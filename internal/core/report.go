package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cachesim"
	"repro/internal/compact"
	"repro/internal/ecache"
	"repro/internal/rtos"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TransitionReport correlates functional information with power information
// (paper §5.3): the energy attributable to one transition of a process.
type TransitionReport struct {
	Name      string
	Reactions uint64
	Energy    units.Energy
}

// MachineReport is the per-process section of a co-estimation report.
type MachineReport struct {
	Name           string
	Mapping        Mapping
	Reactions      uint64
	EstimatorCalls uint64 // real ISS / gate-simulator invocations
	Cycles         uint64
	ComputeEnergy  units.Energy
	WaitEnergy     units.Energy // busy-wait (SW) or bus-stall (HW) energy
	Transitions    []TransitionReport
}

// Energy returns the process total.
func (m MachineReport) Energy() units.Energy { return m.ComputeEnergy + m.WaitEnergy }

// BusCompactionReport compares the compacted bus-energy estimate (§4.3)
// against the full-trace value.
type BusCompactionReport struct {
	FullEnergy      units.Energy
	CompactedEnergy units.Energy
	Stats           compact.Stats
}

// ErrorPct returns the absolute percentage error of the compacted estimate.
func (b BusCompactionReport) ErrorPct() float64 {
	if b.FullEnergy == 0 {
		return 0
	}
	d := float64(b.CompactedEnergy-b.FullEnergy) / float64(b.FullEnergy) * 100
	if d < 0 {
		return -d
	}
	return d
}

// Report is the result of one estimation run.
type Report struct {
	System        string
	Mode          Mode
	SimulatedTime units.Time
	Wall          time.Duration

	Machines []MachineReport

	SWEnergy    units.Energy
	HWEnergy    units.Energy
	BusEnergy   units.Energy
	CacheEnergy units.Energy
	RTOSEnergy  units.Energy
	Total       units.Energy

	BusStats   bus.Stats
	CacheStats cachesim.Stats
	RTOSStats  rtos.Stats

	ISSCalls  uint64
	ISSInsts  uint64
	GateExecs uint64

	SWECache ecache.Stats
	HWECache ecache.Stats

	EnvEvents []ObservedEvent
	Waveform  *Waveform

	BusCompaction *BusCompactionReport

	// Attribution breaks Total down by component, process, bus master,
	// costing technique and execution path; nil unless
	// Config.Attribution was set. Its Total is Total.
	Attribution *Attribution

	// Audit is the shadow-sampling auditor's divergence record; nil
	// unless Config.ShadowAudit.Rate was set.
	Audit *audit.Report

	// Budget bounds the error the enabled accelerations may have
	// introduced into Total — the live analogue of the paper's Tables
	// 1–3 accuracy columns. Nil when no acceleration is active.
	Budget *audit.ErrorBudget
}

// Machine returns the named process report, or nil.
func (r *Report) Machine(name string) *MachineReport {
	for i := range r.Machines {
		if r.Machines[i].Name == name {
			return &r.Machines[i]
		}
	}
	return nil
}

// String renders the report as the tool's textual output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system %s (%s): simulated %v in %v\n", r.System, r.Mode, r.SimulatedTime, r.Wall.Round(time.Microsecond))
	fmt.Fprintf(&b, "  %-14s %-4s %10s %10s %12s %12s %12s\n",
		"process", "map", "reactions", "est.calls", "compute", "wait", "total")
	for _, m := range r.Machines {
		fmt.Fprintf(&b, "  %-14s %-4s %10d %10d %12v %12v %12v\n",
			m.Name, m.Mapping, m.Reactions, m.EstimatorCalls,
			m.ComputeEnergy, m.WaitEnergy, m.Energy())
	}
	fmt.Fprintf(&b, "  bus: %v (%d grants, %d words, %d toggles)\n",
		r.BusEnergy, r.BusStats.Grants, r.BusStats.Words,
		r.BusStats.AddrToggles+r.BusStats.DataToggles+r.BusStats.CtrlToggles)
	if r.CacheStats.Accesses > 0 {
		fmt.Fprintf(&b, "  icache: %v (%.2f%% miss)\n", r.CacheEnergy, r.CacheStats.MissRate()*100)
	}
	fmt.Fprintf(&b, "  rtos: %v (%d dispatches)\n", r.RTOSEnergy, r.RTOSStats.Dispatches)
	if r.SWECache.Lookups > 0 || r.HWECache.Lookups > 0 {
		fmt.Fprintf(&b, "  ecache: sw %.1f%% hits, hw %.1f%% hits\n",
			r.SWECache.HitRate()*100, r.HWECache.HitRate()*100)
	}
	if r.BusCompaction != nil {
		fmt.Fprintf(&b, "  bus compaction: %v vs %v full (%.2f%% err, %.1fx)\n",
			r.BusCompaction.CompactedEnergy, r.BusCompaction.FullEnergy,
			r.BusCompaction.ErrorPct(), r.BusCompaction.Stats.CompressionRatio())
	}
	if r.Budget != nil {
		fmt.Fprintf(&b, "  error budget: ±%v worst-case (%.3f%%), ±%v 95%% CI\n",
			r.Budget.Bound, r.Budget.RelBound()*100, r.Budget.CI95)
	}
	if r.Audit != nil {
		fmt.Fprintf(&b, "  shadow audit: %d audited, %d flagged, %d invalidated\n",
			r.Audit.Audits, r.Audit.Flagged, r.Audit.Invalidated)
	}
	fmt.Fprintf(&b, "  TOTAL %v (sw %v, hw %v)\n", r.Total, r.SWEnergy, r.HWEnergy)
	return b.String()
}

func (cs *CoSim) report(wall time.Duration) *Report {
	r := &Report{
		System:        cs.sys.Name,
		Mode:          cs.cfg.Mode,
		SimulatedTime: cs.kernel.Now(),
		Wall:          wall,
		ISSCalls:      cs.issCalls,
		GateExecs:     cs.gateExecs,
		EnvEvents:     cs.envOut,
		Waveform:      cs.wave,
	}
	if cs.cpu != nil {
		r.ISSInsts = cs.cpu.Stats().Insts
	}

	for mi, m := range cs.sys.Net.Machines {
		mr := MachineReport{
			Name:           m.Name,
			Mapping:        cs.procs[mi].Mapping,
			Reactions:      cs.machineReact[mi],
			EstimatorCalls: cs.machineEstCalls[mi],
			Cycles:         cs.machineCycles[mi],
			ComputeEnergy:  cs.machineEnergy[mi],
			WaitEnergy:     cs.machineWait[mi],
		}
		for ti, tr := range m.Transitions {
			if cs.transCount[mi][ti] == 0 {
				continue
			}
			name := tr.Name
			if name == "" {
				name = fmt.Sprintf("t%d", ti)
			}
			mr.Transitions = append(mr.Transitions, TransitionReport{
				Name:      name,
				Reactions: cs.transCount[mi][ti],
				Energy:    cs.transEnergy[mi][ti],
			})
		}
		r.Machines = append(r.Machines, mr)
		if cs.procs[mi].Mapping == SW {
			r.SWEnergy += mr.Energy()
		} else {
			r.HWEnergy += mr.Energy()
		}
	}

	if cs.cfg.Mode == Separate {
		r.BusEnergy = cs.sepBusEnergy
		r.BusStats = cs.sepBusStats
	} else {
		r.BusStats = cs.bus.Stats()
		r.BusEnergy = r.BusStats.Energy
	}

	if cs.busComp != nil {
		r.BusCompaction = cs.finishBusCompaction()
		r.BusEnergy = r.BusCompaction.CompactedEnergy
	}

	if cs.icache != nil {
		r.CacheStats = cs.icache.Stats()
	}
	r.CacheEnergy = cs.cacheEnergy

	r.RTOSStats = cs.sched.Stats()
	r.RTOSEnergy = units.Energy(r.RTOSStats.OverheadCycles) * cs.cfg.Power.Stall
	cs.book(-1, srcRTOS, 0, r.RTOSEnergy)
	if cs.swCache != nil {
		r.SWECache = cs.swCache.Stats().Since(cs.swCacheBase)
	}
	if cs.hwCache != nil {
		r.HWECache = cs.hwCache.Stats().Since(cs.hwCacheBase)
	}

	r.Total = r.SWEnergy + r.HWEnergy + r.BusEnergy + r.CacheEnergy + r.RTOSEnergy
	r.Audit = cs.audit.Report()
	r.Budget = cs.errorBudget(r)
	if cs.books != nil {
		masters := make([]bus.Stats, len(r.Machines))
		for mi := range masters {
			masters[mi] = cs.bus.MasterStats(mi)
		}
		r.Attribution = cs.books.summary(r, masters, 10)
	}
	return r
}

// errorBudget assembles the per-technique error budget (the live analogue
// of the paper's Tables 1–3 accuracy columns) from the run's acceleration
// state. Nil when no acceleration is enabled — an unaccelerated run has no
// estimation error to budget.
func (cs *CoSim) errorBudget(r *Report) *audit.ErrorBudget {
	a := cs.cfg.Accel
	if !a.ECache && !a.Macromodel && !a.Sampling && !a.BusCompaction {
		return nil
	}
	b := audit.NewBudget(r.Total)
	if cs.swCache != nil {
		b.Add(audit.ECacheBudget("ecache-sw", cs.swCache.Report()))
	}
	if cs.hwCache != nil {
		// Under macro-modeling the HW path table is the per-block
		// macro-model of §4.1; same cache mechanics, different name.
		name := "ecache-hw"
		if a.Macromodel {
			name = "macro-hw"
		}
		b.Add(audit.ECacheBudget(name, cs.hwCache.Report()))
	}
	if a.Macromodel {
		// Table-served SW energy: with macro-modeling on, every SW compute
		// joule came from the table.
		var served uint64
		var energy units.Energy
		for mi := range cs.sys.Net.Machines {
			if cs.procs[mi].Mapping == SW {
				served += cs.machineReact[mi]
				energy += cs.machineEnergy[mi]
			}
		}
		b.Add(audit.MacroBudget(energy, served, cs.audit.Lens(audit.TechMacro)))
	}
	if a.Sampling && len(cs.samples) > 0 {
		keys := cs.sampleKeys()
		paths := make([]audit.SamplingPath, 0, len(keys))
		for _, k := range keys {
			st := cs.samples[k]
			paths = append(paths, audit.SamplingPath{Skipped: st.skipped, Energy: st.energy})
		}
		b.Add(audit.SamplingBudget(paths))
	}
	if r.BusCompaction != nil {
		b.Add(audit.CompactionBudget(r.BusCompaction.FullEnergy,
			r.BusCompaction.CompactedEnergy, r.BusCompaction.Stats.Windows))
	}
	return b
}

// compactGrant feeds one bus grant, as it is made, to the K-memory
// compactor that re-estimates bus energy (§4.3 applied to the SoC
// integration architecture estimator).
func (cs *CoSim) compactGrant(g bus.Grant) {
	sym := uint64(g.Master)<<17 | uint64(g.Words)<<1
	if g.Write {
		sym |= 1
	}
	if w, ok := cs.busComp.Push(compact.Item{Sym: sym, Energy: g.Energy}); ok {
		cs.dispatchWindow(w)
	}
}

// dispatchWindow books one compacted window's scaled energy.
func (cs *CoSim) dispatchWindow(w compact.Window) {
	var e float64
	for _, it := range w.Selected {
		e += float64(it.Energy)
	}
	cs.busCompacted += e * w.Scale
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindCompactionDispatch,
		Component: "bus", Machine: -1,
		Words: len(w.Selected), Value: int64(w.Total),
		Energy: units.Energy(e * w.Scale),
	})
}

// finishBusCompaction dispatches the compactor's last, partial window and
// compares the compacted bus energy with the full grant stream's.
func (cs *CoSim) finishBusCompaction() *BusCompactionReport {
	if w, ok := cs.busComp.Flush(); ok {
		cs.dispatchWindow(w)
	}
	return &BusCompactionReport{
		FullEnergy:      cs.bus.Stats().Energy,
		CompactedEnergy: units.Energy(cs.busCompacted),
		Stats:           cs.busComp.Stats(),
	}
}

// SWCache returns the software energy cache the run used, whose Report is
// the Fig 4(c) snapshot; nil when caching is off.
func (cs *CoSim) SWCache() *ecache.Cache { return cs.swCache }
