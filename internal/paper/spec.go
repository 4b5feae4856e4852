// Package paper is the paper-grade experiment harness: a reproducible
// runner and analyzer for the evaluation tables of the source paper.
//
// Where cmd/repro renders each table once as prose, this package executes a
// declarative experiment grid (experiments.json: scenario knobs, sweep axes,
// repeat counts, seed policy) through pkg/coest Sessions
// and writes a timestamped run directory
//
//	paper_runs/<stamp>/
//	  manifest.json   run provenance: spec snapshot, toolchain, host, phases
//	  results.csv     one row per (experiment, point, variant, repeat)
//	  logs/           per-experiment human-readable renderings
//	  analysis/       grouped mean/std/CI95 CSV + generated Markdown tables
//
// so every published number carries its configuration snapshot and live
// error budget. The analyzer groups repeats into statistics and renders the
// paper's Tables 1-3 plus the warm-vs-cold serving and peak-power
// tables as Markdown; Check diffs a fresh run against a committed baseline
// run with per-metric-class tolerances, turning the evaluation into a
// regression gate.
package paper

import (
	"encoding/json"
	"fmt"
	"os"
)

// Experiment kinds. Each regenerates one evaluation artifact of the paper.
const (
	// KindTable1 is the energy & delay caching comparison (paper Table 1):
	// base vs energy-cached runs over the DMA axis.
	KindTable1 = "table1"
	// KindTable2 is the software power macro-modeling comparison (paper
	// Table 2): base vs macro-model runs over the DMA axis.
	KindTable2 = "table2"
	// KindTable3 is the statistical sampling / bus-trace compaction
	// comparison (paper §4.3, rendered as a third table): base vs
	// sampled+compacted runs over the DMA axis.
	KindTable3 = "table3"
	// KindServing measures cold Estimate vs warm Session.Estimate vs a
	// repeat request on a persistent energy cache — the serving table.
	KindServing = "serving"
	// KindWaveform records the per-component power waveform and its peak,
	// exporting the series as CSV into the analysis directory.
	KindWaveform = "waveform"
)

// kinds is the closed set of valid experiment kinds.
var kinds = map[string]bool{
	KindTable1:   true,
	KindTable2:   true,
	KindTable3:   true,
	KindServing:  true,
	KindWaveform: true,
}

// Experiment is one entry of the grid. Zero fields inherit the spec-level
// defaults.
type Experiment struct {
	// ID names the experiment; it keys the result rows, the log file and
	// the analysis groups, and must be unique within the spec.
	ID string `json:"id"`
	// Kind selects the executor (see the Kind constants).
	Kind string `json:"kind"`
	// System names the subject system ("tcpip", "prodcons", "automotive");
	// table kinds require "tcpip" (their axes are the TCP/IP subsystem's).
	// Empty means tcpip.
	System string `json:"system,omitempty"`
	// Packets overrides the spec-level packet count.
	Packets int `json:"packets,omitempty"`
	// DMASizes overrides the spec-level DMA axis.
	DMASizes []int `json:"dma_sizes,omitempty"`
	// Repeats overrides the spec-level repeat count.
	Repeats int `json:"repeats,omitempty"`
}

// Spec is the declarative experiment grid loaded from experiments.json.
type Spec struct {
	// Name labels the grid; it is recorded in the manifest and tables.
	Name string `json:"name"`
	// Repeats is the default independent-repeat count per measurement.
	// Every repeat re-compiles a fresh session, so repeats are
	// statistically independent; energies are deterministic and the
	// spread lands in the wall-time columns.
	Repeats int `json:"repeats"`
	// Seed is the workload seed policy: it feeds the deterministic payload
	// generators of the scenario systems and is recorded in the manifest
	// and every result row, so a number can always be traced back to the
	// exact stimuli that produced it.
	Seed int64 `json:"seed"`
	// Packets is the default packet count per run.
	Packets int `json:"packets"`
	// DMASizes is the default Table 1-3 row axis.
	DMASizes []int `json:"dma_sizes"`

	Experiments []Experiment `json:"experiments"`
}

// DefaultSpec is the paper-scale grid: the Tables 1-3 axes at 12 packets,
// three repeats.
func DefaultSpec() *Spec {
	return &Spec{
		Name:     "lajolo-rdl00",
		Repeats:  3,
		Seed:     1,
		Packets:  12,
		DMASizes: []int{2, 4, 8, 16, 32, 64},
		Experiments: []Experiment{
			{ID: "table1-ecache", Kind: KindTable1},
			{ID: "table2-macro", Kind: KindTable2},
			{ID: "table3-sampling", Kind: KindTable3},
			{ID: "serving-warmth", Kind: KindServing},
			{ID: "peak-power", Kind: KindWaveform},
		},
	}
}

// LoadSpec reads and validates an experiments.json grid.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("paper: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("paper: %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the grid for structural mistakes before anything runs.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec has no name")
	}
	if s.Repeats < 1 {
		return fmt.Errorf("spec repeats %d < 1", s.Repeats)
	}
	if s.Packets < 1 {
		return fmt.Errorf("spec packets %d < 1", s.Packets)
	}
	if len(s.DMASizes) == 0 {
		return fmt.Errorf("spec has no dma_sizes")
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("spec has no experiments")
	}
	seen := map[string]bool{}
	for i, e := range s.Experiments {
		if e.ID == "" {
			return fmt.Errorf("experiment %d has no id", i)
		}
		if seen[e.ID] {
			return fmt.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if !kinds[e.Kind] {
			return fmt.Errorf("experiment %q: unknown kind %q", e.ID, e.Kind)
		}
		switch sys := e.system(); sys {
		case "tcpip":
		case "prodcons", "automotive":
			if e.Kind != KindWaveform && e.Kind != KindServing {
				return fmt.Errorf("experiment %q: kind %q requires the tcpip system (got %q)", e.ID, e.Kind, sys)
			}
		default:
			return fmt.Errorf("experiment %q: unknown system %q", e.ID, sys)
		}
		for _, d := range e.dmaSizes(s) {
			if d <= 0 {
				return fmt.Errorf("experiment %q: bad DMA size %d", e.ID, d)
			}
		}
	}
	return nil
}

// system resolves the experiment's subject system name.
func (e Experiment) system() string {
	if e.System == "" {
		return "tcpip"
	}
	return e.System
}

// packets resolves the experiment's packet count against the spec default.
func (e Experiment) packets(s *Spec) int {
	if e.Packets > 0 {
		return e.Packets
	}
	return s.Packets
}

// dmaSizes resolves the experiment's DMA axis against the spec default.
func (e Experiment) dmaSizes(s *Spec) []int {
	if len(e.DMASizes) > 0 {
		return e.DMASizes
	}
	return s.DMASizes
}

// repeats resolves the experiment's repeat count against the spec default.
func (e Experiment) repeats(s *Spec) int {
	if e.Repeats > 0 {
		return e.Repeats
	}
	return s.Repeats
}
