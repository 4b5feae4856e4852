// Package paper is the paper-grade experiment harness: a reproducible
// runner and analyzer for every table and figure of the source paper's
// evaluation.
//
// It executes a declarative experiment grid (experiments.json: scenario
// knobs, sweep axes, repeat counts, seed policy) through pkg/coest and
// writes a timestamped run directory
//
//	paper_runs/<stamp>/
//	  manifest.json   run provenance: spec snapshot, toolchain, host, phases
//	  results.csv     one row per (experiment, point, variant, repeat)
//	  logs/           per-experiment human-readable renderings
//	  analysis/       grouped mean/std/CI95 CSV + generated Markdown tables
//
// so every published number carries its configuration snapshot and live
// error budget. The analyzer groups repeats into statistics and renders
// Figs 1, 3, 6 and 7, Tables 1-3, the partition, quality, serving and
// peak-power tables as Markdown; Check diffs a fresh run against a
// committed baseline run with per-metric-class tolerances, turning the
// evaluation into a regression gate.
package paper

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Experiment kinds. Each regenerates one evaluation artifact of the paper.
const (
	// KindSeparate is the Fig 1(b) motivation: the prodcons producer and
	// consumer energies under separate estimation vs co-estimation.
	KindSeparate = "separate"
	// KindCharacterize is the Fig 3 characterization flow: every
	// macro-operation measured on the ISS, one row per operation with its
	// characterized energy, and the parameter file in analysis/<id>.params.
	KindCharacterize = "characterize"
	// KindPathEnergy is the Fig 4(b) caching intuition: per-path energy
	// histograms on the data-dependent DSP power model, in the log.
	KindPathEnergy = "path-energy"
	// KindTable1 is the energy & delay caching comparison (paper Table 1):
	// base vs energy-cached runs over the DMA axis.
	KindTable1 = "table1"
	// KindTable2 is the software power macro-modeling comparison (paper
	// Table 2): base vs macro-model runs over the DMA axis. The analyzer
	// adds the Fig 6 relative-accuracy line to every table2 experiment.
	KindTable2 = "table2"
	// KindTable3 is the statistical sampling / bus-trace compaction
	// comparison (paper §4.3, rendered as a third table): base vs
	// sampled+compacted runs over the DMA axis.
	KindTable3 = "table3"
	// KindDSE is the Fig 7 communication-architecture exploration: all six
	// bus-master priority assignments × the DMA axis.
	KindDSE = "dse"
	// KindPartition co-estimates the four HW/SW mappings of the prodcons
	// producer and consumer.
	KindPartition = "partition"
	// KindQuality is one Table 1 caching run with the attribution ledger
	// and a shadow audit, whose ledger, budget and audit go to the log.
	KindQuality = "quality"
	// KindServing measures cold Estimate vs warm Session.Estimate vs a
	// repeat request on a persistent energy cache — the serving table.
	KindServing = "serving"
	// KindWaveform records the per-component power waveform and its peak,
	// exporting the series as CSV into the analysis directory.
	KindWaveform = "waveform"
)

// kindSystems is the closed set of valid experiment kinds, each with the
// subject systems it runs on (nil: any system).
var kindSystems = map[string][]string{
	KindSeparate:     {"prodcons"},
	KindCharacterize: nil,
	KindPathEnergy:   {"tcpip"},
	KindTable1:       {"tcpip"},
	KindTable2:       {"tcpip"},
	KindTable3:       {"tcpip"},
	KindDSE:          {"tcpip"},
	KindPartition:    {"prodcons"},
	KindQuality:      {"tcpip"},
	KindServing:      nil,
	KindWaveform:     nil,
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
	// every kind but characterize, serving and waveform runs on one system
	// only (see kindSystems). Empty means tcpip.
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

// DefaultSpec is the paper-scale grid: every artifact of the evaluation,
// the Tables 1-3 axes at 12 packets, three repeats.
func DefaultSpec() *Spec {
	return &Spec{
		Name:     "lajolo-rdl00",
		Repeats:  3,
		Seed:     1,
		Packets:  12,
		DMASizes: []int{2, 4, 8, 16, 32, 64},
		Experiments: []Experiment{
			{ID: "fig1-separate", Kind: KindSeparate, System: "prodcons", Packets: 8},
			{ID: "fig3-params", Kind: KindCharacterize},
			{ID: "fig4-path-energy", Kind: KindPathEnergy, Packets: 16, DMASizes: []int{4}},
			{ID: "table1-ecache", Kind: KindTable1},
			{ID: "table2-macro", Kind: KindTable2},
			{ID: "fig6-macro", Kind: KindTable2, DMASizes: []int{2, 4, 8, 16, 32, 64, 128}},
			{ID: "table3-sampling", Kind: KindTable3},
			{ID: "fig7-dse", Kind: KindDSE, Packets: 3, DMASizes: []int{2, 4, 8, 16, 32, 64, 128}},
			{ID: "partition", Kind: KindPartition, System: "prodcons", Packets: 8},
			{ID: "quality", Kind: KindQuality, DMASizes: []int{4}},
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
		allowed, ok := kindSystems[e.Kind]
		if !ok {
			return fmt.Errorf("experiment %q: unknown kind %q", e.ID, e.Kind)
		}
		sys := e.system()
		switch sys {
		case "tcpip", "prodcons", "automotive":
		default:
			return fmt.Errorf("experiment %q: unknown system %q", e.ID, sys)
		}
		if allowed != nil && !slices.Contains(allowed, sys) {
			return fmt.Errorf("experiment %q: kind %q requires the %s system (got %q)", e.ID, e.Kind, allowed[0], sys)
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
