package core

import (
	"fmt"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/cfsm"
	"repro/internal/gate"
	"repro/internal/hwsyn"
	"repro/internal/iss"
	"repro/internal/swsyn"
	"repro/internal/units"
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

	// Replay, if set, is the table of recorded hardware-execution courses
	// that every run rebinding these artifacts replays from and records
	// into (hwsyn.Replay). A sweep sets one per design, and a session one
	// for its batches (coest.Session.EstimateBatch) on a copy of its
	// artifacts; Compile leaves it nil, so a run of those artifacts
	// simulates every execution.
	Replay *hwsyn.Replay

	// boot is Image made ready for the ISS: its text predecoded under the
	// compiling run's timing model, and the initialized SPARC memory
	// (program words, variables, event buffers) every run starts from.
	// A run under a timing model of other values builds its own.
	boot *iss.Image

	// switchE holds, by machine name, the per-net switch energies of each
	// HW module's netlist at the compiling run's HW supply voltage, which
	// every run's gate simulators share. A run at another voltage builds
	// its own.
	switchE map[string]*gate.SwitchEnergies
}

// Compile synthesizes the system under cfg (Fig 2(a), the compilation
// flow): the software partition into one SPARC image, made ready for the
// ISS under cfg's timing model, and every hardware process into a gate
// netlist compiled for simulation. It is the one compile path: New
// compiles through it, and sessions and sweeps compile through it once and
// rebind the artifacts per run (NewShared). The artifacts' modules refer to
// sys's machines until rebound.
func Compile(sys *System, cfg Config) (*Artifacts, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Artifacts{HWWidth: cfg.HWWidth}
	var swMachines, hwMachines []*cfsm.CFSM
	for _, m := range sys.Net.Machines {
		if sys.Procs[m.Name].Mapping == SW {
			swMachines = append(swMachines, m)
		} else {
			hwMachines = append(hwMachines, m)
		}
	}
	if len(swMachines) > 0 {
		mSWCompiles.Inc()
		img, err := swsyn.Compile(swMachines)
		if err != nil {
			return nil, err
		}
		a.Image = img
		a.boot = iss.NewImage(img.Prog, cfg.Timing, img.InitMemory)
	}
	if len(hwMachines) > 0 {
		a.HW = make(map[string]*hwsyn.Module, len(hwMachines))
		a.switchE = make(map[string]*gate.SwitchEnergies, len(hwMachines))
	}
	for _, m := range hwMachines {
		mHWSyntheses.Inc()
		mod, err := hwsyn.Synthesize(m, hwsyn.Config{Width: cfg.HWWidth})
		if err != nil {
			return nil, err
		}
		a.HW[m.Name] = mod
		a.switchE[m.Name] = mod.SwitchEnergies(cfg.HWVdd)
	}
	return a, nil
}

// newDriver returns a gate-level driver of the artifacts' module for
// machine m, bound to m, at supply voltage vdd.
func (a *Artifacts) newDriver(m *cfsm.CFSM, vdd units.Voltage) (*hwsyn.Driver, error) {
	mod, ok := a.HW[m.Name]
	if !ok {
		return nil, fmt.Errorf("core: artifacts carry no HW module for %q", m.Name)
	}
	mod, err := mod.Rebind(m)
	if err != nil {
		return nil, err
	}
	sw := a.switchE[m.Name]
	if sw == nil || sw.Vdd() != vdd {
		sw = mod.SwitchEnergies(vdd)
	}
	d := hwsyn.NewDriver(mod, sw)
	d.Replay = a.Replay
	return d, nil
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
