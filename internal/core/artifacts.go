package core

import (
	"fmt"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/cfsm"
	"repro/internal/hwsyn"
	"repro/internal/iss"
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

	// boot is Image made ready for the ISS: its text predecoded under the
	// compiling run's timing model, and the initialized SPARC memory
	// (program words, variables, event buffers) every run starts from.
	// A run under another timing model builds its own.
	boot *iss.Image
}

// Artifacts extracts the synthesis products of a built co-simulation for
// reuse by later runs via NewShared. The returned artifacts reference the
// CoSim's machines until rebound; treat them as read-only.
func (cs *CoSim) Artifacts() *Artifacts {
	a := &Artifacts{HWWidth: cs.cfg.HWWidth, Image: cs.image, boot: cs.boot}
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

// A finished run's ISS memory, with its pages, and its I-cache simulator
// go back to these pools, and the next run, of any session or design,
// takes them and resets them: iss.CPU.LoadImage copies the boot memory
// over the recycled pages and cachesim.Cache.Reset empties the sets. A
// sync.Pool lets the garbage collector free what no run takes back.
var (
	memPool   sync.Pool // *iss.Mem
	cachePool sync.Pool // *cachesim.Cache
)

func takeMem() *iss.Mem {
	if m, ok := memPool.Get().(*iss.Mem); ok {
		return m
	}
	return iss.NewMem()
}

// takeCache returns an empty I-cache simulator of configuration cfg.
func takeCache(cfg cachesim.Config) (*cachesim.Cache, error) {
	if c, ok := cachePool.Get().(*cachesim.Cache); ok && c.Config() == cfg {
		c.Reset()
		return c, nil
	}
	return cachesim.New(cfg)
}

// recycle hands the finished run's ISS memory and I-cache simulator back to
// the pools. The run keeps no reference to either: its report has already
// copied out what it needs of them.
func (cs *CoSim) recycle() {
	if cs.cpu != nil {
		memPool.Put(cs.cpu.Mem)
	}
	if cs.icache != nil {
		cachePool.Put(cs.icache)
	}
	cs.cpu, cs.icache = nil, nil
}
