package main

import (
	"embed"
	"encoding/json"
	"fmt"

	"repro/pkg/coest"
)

// The oracle's goldens were generated from the reference path — one cold
// coest.Estimate per point on the default backend — with -write-golden,
// for the case-study payload seed and a second payload seed, so that the
// oracle is not fitted to one payload.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenSeeds are the TCPIPParams.Seed values with committed goldens; a
// run's --seed picks one of them, so every answer is checked exactly.
var goldenSeeds = []uint32{1, 2027}

// pointSig is everything the oracle compares exactly for one DSE point.
type pointSig struct {
	Point          string  `json:"point"`
	TotalJ         float64 `json:"total_j"`
	SWJ            float64 `json:"sw_j"`
	HWJ            float64 `json:"hw_j"`
	BusJ           float64 `json:"bus_j"`
	SimulatedNS    int64   `json:"simulated_ns"`
	ISSCalls       uint64  `json:"iss_calls"`
	GateExecs      uint64  `json:"gate_execs"`
	ICacheAccesses uint64  `json:"icache_accesses"`
}

func sigOf(point string, r *coest.Report) pointSig {
	return pointSig{
		Point:          point,
		TotalJ:         r.Total.Joules(),
		SWJ:            r.SWEnergy.Joules(),
		HWJ:            r.HWEnergy.Joules(),
		BusJ:           r.BusEnergy.Joules(),
		SimulatedNS:    int64(r.SimulatedTime),
		ISSCalls:       r.ISSCalls,
		GateExecs:      r.GateExecs,
		ICacheAccesses: r.CacheStats.Accesses,
	}
}

// dseGolden is the committed answer set of one DSE workload at one payload
// seed, in canonical point order.
type dseGolden struct {
	Workload    string     `json:"workload"`
	PayloadSeed uint32     `json:"payload_seed"`
	Packets     int        `json:"packets"`
	Points      []pointSig `json:"points"`
}

// wireSig is what the oracle compares exactly for one served answer.
type wireSig struct {
	TotalJ      float64 `json:"total_j"`
	SWJ         float64 `json:"sw_j"`
	HWJ         float64 `json:"hw_j"`
	SimulatedNS int64   `json:"simulated_ns"`
	ISSCalls    uint64  `json:"iss_calls"`
}

// fleetDesign is the reference answer set of one fleet design (tcpip at
// Packets packets): the default configuration, against which cached
// answers' error budgets are checked, and each DMA size of dmaSizes.
type fleetDesign struct {
	Packets int       `json:"packets"`
	Default wireSig   `json:"default"`
	DMA     []wireSig `json:"dma"`
}

type fleetGolden struct {
	DMASizes []int         `json:"dma_sizes"`
	Designs  []fleetDesign `json:"designs"`
}

func goldenName(workload string, seed uint32) string {
	return fmt.Sprintf("golden/%s.seed%d.json", workload, seed)
}

func loadGolden(name string, v any) error {
	raw, err := goldenFS.ReadFile(name)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("oracle: %s: %w", name, err)
	}
	return nil
}

// loadDSEGolden returns the golden points of a DSE workload, checking that
// they describe the point list the workload will run.
func loadDSEGolden(workload string, seed uint32, packets int, names []string) ([]pointSig, error) {
	var g dseGolden
	if err := loadGolden(goldenName(workload, seed), &g); err != nil {
		return nil, err
	}
	if g.Workload != workload || g.PayloadSeed != seed || g.Packets != packets || len(g.Points) != len(names) {
		return nil, fmt.Errorf("oracle: golden for %s seed %d describes %s seed %d, %d packets, %d points",
			workload, seed, g.Workload, g.PayloadSeed, g.Packets, len(g.Points))
	}
	for i, p := range g.Points {
		if p.Point != names[i] {
			return nil, fmt.Errorf("oracle: golden point %d is %q, workload runs %q", i, p.Point, names[i])
		}
	}
	return g.Points, nil
}

// checkPoints compares a pass's answers with a reference answer set and
// returns the indices that differ.
func checkPoints(got, want []pointSig) []int {
	var bad []int
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad = append(bad, i)
		}
	}
	return bad
}
