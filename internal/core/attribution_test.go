package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cfsm"
	"repro/internal/units"
)

// twoMachines is a report of a software producer and a hardware filter with
// nothing booked yet.
func twoMachines() *Report {
	return &Report{Machines: []MachineReport{
		{Name: "producer", Mapping: SW},
		{Name: "filter", Mapping: HW},
	}}
}

const nJ = units.Nanojoule

// The component and process rows are the report's own accounts: the
// summary's Total is the report's Total and each process's energy is its
// compute plus its wait.
func TestAttributionComponentsFromReport(t *testing.T) {
	r := twoMachines()
	r.Machines[0].ComputeEnergy, r.Machines[0].WaitEnergy = 150*nJ, 5*nJ
	r.Machines[1].ComputeEnergy = 30 * nJ
	r.SWEnergy, r.HWEnergy = 155*nJ, 30*nJ
	r.BusEnergy, r.BusStats.Energy = 7*nJ, 7*nJ
	r.CacheEnergy, r.RTOSEnergy = 20*nJ, 10*nJ
	r.Total = r.SWEnergy + r.HWEnergy + r.BusEnergy + r.CacheEnergy + r.RTOSEnergy

	s := newBooks(2).summary(r, []bus.Stats{{Grants: 1, Words: 4, Energy: 7 * nJ}, {}}, 10)
	if s.Total != r.Total {
		t.Fatalf("total = %v, want the report's %v", s.Total, r.Total)
	}
	want := map[string]units.Energy{"sw": r.SWEnergy, "hw": r.HWEnergy, "bus": r.BusEnergy,
		"icache": r.CacheEnergy, "rtos": r.RTOSEnergy}
	var sum units.Energy
	for _, c := range s.Components {
		if c.Energy != want[c.Name] {
			t.Fatalf("component %s = %v, want %v", c.Name, c.Energy, want[c.Name])
		}
		sum += c.Energy
	}
	if len(s.Components) != len(want) || math.Abs(float64(sum-s.Total)) > 1e-15*float64(s.Total) {
		t.Fatalf("components %+v do not add up to %v", s.Components, s.Total)
	}
	if m := s.Machines[0]; m.Name != "producer" || m.Energy != r.Machines[0].Energy() || m.Wait != 5*nJ || m.HW {
		t.Fatalf("top process = %+v, want producer at 150nJ compute plus 5nJ wait", m)
	}
	if len(s.BusMasters) != 1 || s.BusMasters[0].Name != "producer" || s.BusMasters[0].Share != 1 {
		t.Fatalf("bus masters = %+v, want producer alone (the filter made no grant)", s.BusMasters)
	}
}

func TestAttributionPathAndTechniqueRollups(t *testing.T) {
	b := newBooks(2)
	b.add(0, srcISS, 0xA, 10*nJ)
	b.add(0, srcECache, 0xA, 20*nJ)
	b.add(0, srcISS, 0xB, 5*nJ)
	b.add(0, srcWait, 0, 3*nJ)
	b.add(0, srcICache, 0xA, 2*nJ)
	b.add(-1, srcRTOS, 0, 1*nJ)

	s := b.summary(twoMachines(), nil, 10)
	if s.PathCount != 2 {
		t.Fatalf("paths = %d, want 2 (wait and the shared components make no path)", s.PathCount)
	}
	if s.Events != 6 {
		t.Fatalf("records = %d, want 6 (one per accrual)", s.Events)
	}
	top := s.TopPaths[0]
	if top.Path != 0xA || top.Energy != 30*nJ || top.Count != 2 || top.Name != "producer" {
		t.Fatalf("top path = %+v", top)
	}
	if top.Source != "ecache" {
		t.Fatalf("top path source = %q, want the last serve's technique", top.Source)
	}

	techs := map[string]TechniqueBreakdown{}
	for _, c := range s.Techniques {
		techs[c.Name] = c
	}
	if len(techs) != 3 {
		t.Fatalf("techniques = %+v, want iss, ecache and wait only", s.Techniques)
	}
	if techs["iss"].Energy != 15*nJ || techs["iss"].Count != 2 {
		t.Fatalf("iss technique = %+v", techs["iss"])
	}
	if techs["ecache"].Energy != 20*nJ || techs["wait"].Energy != 3*nJ {
		t.Fatalf("ecache/wait techniques = %+v/%+v", techs["ecache"], techs["wait"])
	}
	if s.Techniques[0].Name != "ecache" {
		t.Fatalf("techniques not energy-ordered: %+v", s.Techniques)
	}
}

func TestAttributionTopNTruncation(t *testing.T) {
	b := newBooks(2)
	for p := uint64(1); p <= 5; p++ {
		b.add(0, srcISS, cfsm.PathKey(p), units.Energy(p)*nJ)
	}
	s := b.summary(twoMachines(), nil, 2)
	if len(s.TopPaths) != 2 || s.PathCount != 5 {
		t.Fatalf("topN = %d of %d, want 2 of 5", len(s.TopPaths), s.PathCount)
	}
	if s.TopPaths[0].Path != 5 || s.TopPaths[1].Path != 4 {
		t.Fatalf("top paths not energy-ordered: %+v", s.TopPaths)
	}
}

// With compaction on, the bus component is the compacted estimate (the
// report's BusEnergy), while the per-master rows and their shares come
// from the full grant stream.
func TestAttributionCompactedBusOverridesFull(t *testing.T) {
	r := twoMachines()
	r.BusStats.Energy = 20 * nJ
	r.BusEnergy = 18 * nJ
	r.Total = r.BusEnergy
	masters := []bus.Stats{{Grants: 1, Energy: 10 * nJ}, {Grants: 1, Energy: 10 * nJ}}

	s := newBooks(2).summary(r, masters, 0)
	for _, c := range s.Components {
		if c.Name == "bus" && c.Energy != 18*nJ {
			t.Fatalf("bus component = %v, want the compacted estimate", c.Energy)
		}
	}
	if len(s.BusMasters) != 2 {
		t.Fatalf("masters = %d", len(s.BusMasters))
	}
	for i, m := range s.BusMasters {
		if m.Machine != i || math.Abs(m.Share-0.5) > 1e-9 {
			t.Fatalf("master %+v, want machine %d at 0.5 of the full-trace energy", m, i)
		}
	}
}

func TestAttributionCountersAndFlags(t *testing.T) {
	r := twoMachines()
	r.Machines[0].Reactions, r.Machines[0].EstimatorCalls = 3, 2
	r.Machines[1].Reactions, r.Machines[1].EstimatorCalls = 1, 1
	r.Audit = &audit.Report{Audits: 1}
	b := newBooks(2)
	b.hits[0] = 1
	b.truncated = true

	s := b.summary(r, nil, 0)
	m0 := s.Machines[0]
	if m0.Name != "producer" {
		m0 = s.Machines[1]
	}
	if m0.Reactions != 3 || m0.EstimatorCalls != 2 || m0.CacheHits != 1 {
		t.Fatalf("machine counters = %+v", m0)
	}
	if s.ShadowSeen != 1 || !s.Truncated {
		t.Fatalf("shadow/truncated = %d/%v", s.ShadowSeen, s.Truncated)
	}
}

func TestAttributionRender(t *testing.T) {
	b := newBooks(2)
	b.add(0, srcISS, 0x1, 10*nJ)
	b.add(1, srcGate, 0x2, 5*nJ)
	r := twoMachines()
	r.Total = 15 * nJ
	var buf bytes.Buffer
	b.summary(r, []bus.Stats{{Grants: 2, Words: 8, Energy: nJ}}, 10).Render(&buf)
	out := buf.String()
	for _, want := range []string{"energy attribution", "across 2 records", "component", "producer", "filter",
		"bus master", "costed by", "execution paths"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
