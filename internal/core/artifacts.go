package core

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/hwsyn"
	"repro/internal/swsyn"
)

// Clone returns an independent copy of the co-estimation subject: the CFSM
// network is cloned (fresh runtime state, shared read-only wiring and
// specifications), while the partition map, stimuli and shared-memory image
// — all treated as read-only by the master — stay shared. Two clones can be
// simulated concurrently without synchronization; this is what makes
// compile-once/estimate-many sessions race-free.
func (s *System) Clone() *System {
	out := *s
	out.Net = s.Net.Clone()
	return &out
}

// Artifacts are the reusable synthesis products of one compilation: the
// SPARC image of the software partition and the gate-level module of every
// hardware process (its netlist compiled to a gate.Program), keyed by
// machine name. They are read-only once built —
// each new run rebinds them to its own cloned machines (swsyn.Rebind,
// hwsyn.Rebind) instead of recompiling, which is the warm path of a
// long-running estimation session.
//
// Artifacts are only valid for the System they were built from and for runs
// whose Config keeps the same HWWidth (the one config knob that reaches
// hardware synthesis).
type Artifacts struct {
	HWWidth int
	Image   *swsyn.Compiled          // nil when no process maps to software
	HW      map[string]*hwsyn.Module // by machine name
}

// Artifacts extracts the synthesis products of a built co-simulation for
// reuse by later runs via NewShared. The returned artifacts reference the
// CoSim's machines until rebound; treat them as read-only.
func (cs *CoSim) Artifacts() *Artifacts {
	a := &Artifacts{HWWidth: cs.cfg.HWWidth, Image: cs.image}
	if len(cs.hw) > 0 {
		a.HW = make(map[string]*hwsyn.Module, len(cs.hw))
		for mi, ex := range cs.hw {
			a.HW[cs.sys.Net.Machines[mi].Name] = ex.driver.Mod
		}
	}
	return a
}

// rebindSW returns the software image for this run: a rebind of the shared
// artifact image when one is provided, a fresh compilation otherwise.
func rebindSW(art *Artifacts, swMachines []*cfsm.CFSM) (*swsyn.Compiled, error) {
	if art != nil && art.Image != nil {
		return art.Image.Rebind(swMachines)
	}
	mSWCompiles.Inc()
	return swsyn.Compile(swMachines)
}

// rebindHW returns the synthesized module for machine m: a rebind of the
// shared artifact module when one is provided, a fresh synthesis otherwise.
func rebindHW(art *Artifacts, m *cfsm.CFSM, cfg *Config) (*hwsyn.Module, error) {
	if art != nil {
		mod, ok := art.HW[m.Name]
		if !ok {
			return nil, fmt.Errorf("core: artifacts carry no HW module for %q", m.Name)
		}
		return mod.Rebind(m)
	}
	mHWSyntheses.Inc()
	return hwsyn.Synthesize(m, hwsyn.Config{Width: cfg.HWWidth})
}
