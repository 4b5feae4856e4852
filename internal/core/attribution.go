package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bus"
	"repro/internal/cfsm"
	"repro/internal/report"
	"repro/internal/units"
)

// source is what an energy accrual is booked under: the technique that
// costed a reaction (wait: the CPU's stall on its bus transfers), or the
// shared component that spent it.
type source uint8

// Accrual sources. The techniques come first; srcICache and srcRTOS are
// shared components, which the attribution rollups count but do not
// break down.
const (
	srcISS source = iota
	srcGate
	srcECache
	srcMacro
	srcSampling
	srcWait
	srcICache
	srcRTOS
)

var sourceNames = [...]string{"iss", "gate", "ecache", "macro", "sampling", "wait", "icache", "rtos"}

func (s source) String() string { return sourceNames[s] }

// book accrues energy e from source src to machine mi, on the execution
// path path: the one place a run books energy. Compute energy goes to the
// machine and its waveform lane, wait energy to the machine's wait and the
// same lane, I-cache energy to the cache and its own lane. RTOS overhead is
// booked once, as the report is built, and has neither. With attribution
// on, every accrual is also one record of the rollups.
func (cs *CoSim) book(mi int, src source, path cfsm.PathKey, e units.Energy) {
	switch src {
	case srcRTOS:
		// The report holds it; only the rollups record it.
	case srcICache:
		cs.cacheEnergy += e
		cs.wave.Add("icache", cs.kernel.Now(), e)
	case srcWait:
		cs.machineWait[mi] += e
		cs.wave.Add(cs.sys.Net.Machines[mi].Name, cs.kernel.Now(), e)
	default:
		cs.machineEnergy[mi] += e
		cs.wave.Add(cs.sys.Net.Machines[mi].Name, cs.kernel.Now(), e)
	}
	if cs.books != nil {
		cs.books.add(mi, src, path, e)
	}
}

// books are the attribution rollups a run keeps beside its accounts
// (Config.Attribution): energy and records per costing technique and per
// execution path, and each machine's energy-cache hits. Everything else
// the attribution summary shows is read from the report.
type books struct {
	techs     [srcICache]tally
	paths     map[pathKey]*pathTally
	hits      []uint64 // energy-cache hits, by machine
	records   uint64   // accruals booked
	truncated bool     // the run stopped at MaxSimTime
}

type pathKey struct {
	machine int
	path    cfsm.PathKey
}

type tally struct {
	energy units.Energy
	count  uint64
}

type pathTally struct {
	tally
	src source // the technique that costed the path's last reaction
}

func newBooks(machines int) *books {
	return &books{paths: make(map[pathKey]*pathTally), hits: make([]uint64, machines)}
}

// add records one accrual. Wait energy is the integration architecture's
// doing, not a costed path's, so it stays out of the path rollup; the
// shared components stay out of both.
func (b *books) add(mi int, src source, path cfsm.PathKey, e units.Energy) {
	b.records++
	if src >= srcICache {
		return
	}
	t := &b.techs[src]
	t.energy += e
	t.count++
	if src == srcWait {
		return
	}
	k := pathKey{machine: mi, path: path}
	p := b.paths[k]
	if p == nil {
		p = &pathTally{}
		b.paths[k] = p
	}
	p.energy += e
	p.count++
	p.src = src
}

// ComponentShare is one row of the component rollup.
type ComponentShare struct {
	Name   string       `json:"name"`
	Energy units.Energy `json:"energy_j"`
	Share  float64      `json:"share"` // fraction of Attribution.Total
}

// MachineBreakdown is one process's energy.
type MachineBreakdown struct {
	Machine        int          `json:"machine"`
	Name           string       `json:"name"`
	HW             bool         `json:"hw"`
	Energy         units.Energy `json:"energy_j"` // compute + wait
	Wait           units.Energy `json:"wait_j"`
	Reactions      uint64       `json:"reactions"`
	EstimatorCalls uint64       `json:"estimator_calls"`
	CacheHits      uint64       `json:"cache_hits"`
	Share          float64      `json:"share"`
}

// BusMasterBreakdown is one master's share of the bus energy. With
// compaction on, per-master energies are from the full grant stream while
// the component rollup uses the compacted estimate; shares are relative to
// the full-trace bus energy.
type BusMasterBreakdown struct {
	Machine int          `json:"machine"`
	Name    string       `json:"name"`
	Energy  units.Energy `json:"energy_j"`
	Grants  uint64       `json:"grants"`
	Words   uint64       `json:"words"`
	Share   float64      `json:"share"`
}

// TechniqueBreakdown is the energy booked under one costing technique
// ("iss", "gate", "ecache", "macro", "sampling", "wait").
type TechniqueBreakdown struct {
	Name   string       `json:"name"`
	Energy units.Energy `json:"energy_j"`
	Count  uint64       `json:"count"` // accrual records
	Share  float64      `json:"share"`
}

// PathBreakdown is one execution path's energy.
type PathBreakdown struct {
	Machine int          `json:"machine"`
	Name    string       `json:"name"`
	Path    uint64       `json:"path"`
	Energy  units.Energy `json:"energy_j"`
	Count   uint64       `json:"count"`
	Source  string       `json:"source"`
	Share   float64      `json:"share"`
}

// Attribution answers "where did the energy go?" for one run: the
// report's totals by component and process, the bus energy by master, and
// the energy by costing technique and top-N execution path. Total is the
// report's Total.
type Attribution struct {
	Total      units.Energy         `json:"total_j"`
	Components []ComponentShare     `json:"components"`
	Machines   []MachineBreakdown   `json:"machines"`
	BusMasters []BusMasterBreakdown `json:"bus_masters"`
	Techniques []TechniqueBreakdown `json:"techniques"`
	TopPaths   []PathBreakdown      `json:"top_paths"`
	PathCount  int                  `json:"path_count"` // distinct paths booked
	Events     uint64               `json:"events"`     // accrual records booked
	ShadowSeen uint64               `json:"shadow_audits,omitempty"`
	Truncated  bool                 `json:"truncated,omitempty"`
}

// summary assembles the attribution of report r: its own totals, the bus's
// per-master stats (masters, by machine index) and the rollups, keeping
// the topN highest-energy paths (all of them when topN <= 0).
func (b *books) summary(r *Report, masters []bus.Stats, topN int) *Attribution {
	total := r.Total
	share := func(e units.Energy) float64 {
		if total == 0 {
			return 0
		}
		return float64(e / total)
	}
	s := &Attribution{
		Total:     total,
		Events:    b.records,
		Truncated: b.truncated,
		PathCount: len(b.paths),
	}
	if r.Audit != nil {
		s.ShadowSeen = r.Audit.Audits
	}
	for _, c := range []ComponentShare{
		{Name: "sw", Energy: r.SWEnergy},
		{Name: "hw", Energy: r.HWEnergy},
		{Name: "bus", Energy: r.BusEnergy},
		{Name: "icache", Energy: r.CacheEnergy},
		{Name: "rtos", Energy: r.RTOSEnergy},
	} {
		c.Share = share(c.Energy)
		s.Components = append(s.Components, c)
	}

	for mi, m := range r.Machines {
		s.Machines = append(s.Machines, MachineBreakdown{
			Machine: mi, Name: m.Name, HW: m.Mapping == HW,
			Energy: m.Energy(), Wait: m.WaitEnergy,
			Reactions: m.Reactions, EstimatorCalls: m.EstimatorCalls, CacheHits: b.hits[mi],
			Share: share(m.Energy()),
		})
	}
	sort.SliceStable(s.Machines, func(i, j int) bool {
		return s.Machines[i].Energy > s.Machines[j].Energy
	})

	for mi, m := range masters {
		if m.Grants == 0 {
			continue
		}
		var shr float64
		if r.BusStats.Energy > 0 {
			shr = float64(m.Energy / r.BusStats.Energy)
		}
		s.BusMasters = append(s.BusMasters, BusMasterBreakdown{
			Machine: mi, Name: r.Machines[mi].Name,
			Energy: m.Energy, Grants: m.Grants, Words: m.Words, Share: shr,
		})
	}
	sort.SliceStable(s.BusMasters, func(i, j int) bool {
		return s.BusMasters[i].Energy > s.BusMasters[j].Energy
	})

	for src, t := range b.techs {
		if t.count > 0 {
			s.Techniques = append(s.Techniques, TechniqueBreakdown{
				Name: source(src).String(), Energy: t.energy, Count: t.count, Share: share(t.energy),
			})
		}
	}
	sort.Slice(s.Techniques, func(i, j int) bool {
		if s.Techniques[i].Energy != s.Techniques[j].Energy {
			return s.Techniques[i].Energy > s.Techniques[j].Energy
		}
		return s.Techniques[i].Name < s.Techniques[j].Name
	})

	for k, p := range b.paths {
		s.TopPaths = append(s.TopPaths, PathBreakdown{
			Machine: k.machine, Name: r.Machines[k.machine].Name, Path: uint64(k.path),
			Energy: p.energy, Count: p.count, Source: p.src.String(),
			Share: share(p.energy),
		})
	}
	sort.Slice(s.TopPaths, func(i, j int) bool {
		a, c := s.TopPaths[i], s.TopPaths[j]
		if a.Energy != c.Energy {
			return a.Energy > c.Energy
		}
		if a.Machine != c.Machine {
			return a.Machine < c.Machine
		}
		return a.Path < c.Path
	})
	if topN > 0 && len(s.TopPaths) > topN {
		s.TopPaths = s.TopPaths[:topN]
	}
	return s
}

// Render writes the attribution as terminal tables.
func (s *Attribution) Render(w io.Writer) {
	fmt.Fprintf(w, "energy attribution: %v total across %d records\n", s.Total, s.Events)
	t := report.NewTable("component", "energy", "share")
	for _, c := range s.Components {
		t.Row(c.Name, c.Energy.String(), pct(c.Share))
	}
	t.Render(w)

	t = report.NewTable("process", "map", "energy", "wait", "share", "reactions", "est.calls", "cache hits")
	for _, m := range s.Machines {
		mp := SW
		if m.HW {
			mp = HW
		}
		t.Row(m.Name, mp.String(), m.Energy.String(), m.Wait.String(), pct(m.Share), m.Reactions, m.EstimatorCalls, m.CacheHits)
	}
	t.Render(w)

	if len(s.BusMasters) > 0 {
		t = report.NewTable("bus master", "energy", "share", "grants", "words")
		for _, m := range s.BusMasters {
			t.Row(m.Name, m.Energy.String(), pct(m.Share), m.Grants, m.Words)
		}
		t.Render(w)
	}

	if len(s.Techniques) > 0 {
		t = report.NewTable("costed by", "energy", "share", "records")
		for _, c := range s.Techniques {
			t.Row(c.Name, c.Energy.String(), pct(c.Share), c.Count)
		}
		t.Render(w)
	}

	if len(s.TopPaths) > 0 {
		fmt.Fprintf(w, "top %d of %d execution paths:\n", len(s.TopPaths), s.PathCount)
		t = report.NewTable("process", "path", "energy", "share", "reactions", "source")
		for _, p := range s.TopPaths {
			t.Row(p.Name, fmt.Sprintf("%x", p.Path), p.Energy.String(), pct(p.Share), p.Count, p.Source)
		}
		t.Render(w)
	}
	if s.Truncated {
		fmt.Fprintf(w, "  (run truncated at MaxSimTime; attribution covers the observed window)\n")
	}
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
