package paper

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
)

// Runner executes a Spec and writes one timestamped run directory.
type Runner struct {
	Spec *Spec
	// OutRoot is the parent of the run directory (conventionally
	// "paper_runs").
	OutRoot string
	// Stamp overrides the timestamp-derived run id. Committed baselines use
	// a fixed stamp ("baseline", "baseline-smoke") so their paths are
	// stable; ad-hoc runs leave it empty and get a UTC timestamp.
	Stamp string
	// Log receives run progress (one line per experiment). Nil means
	// io.Discard.
	Log io.Writer

	runID string
	dir   string
}

// energyString renders a joule column the way reports do.
func energyString(j float64) string { return units.Energy(j).String() }

// writeWaveformCSV exports a report's waveform through the public accessor.
func writeWaveformCSV(path string, rep *coest.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Waveform.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Run executes every experiment of the spec and returns the run directory.
// The directory always contains manifest.json (with the error recorded) and
// whatever results were complete, even when an experiment fails — a partial
// run is still evidence.
func (r *Runner) Run(ctx context.Context) (string, error) {
	if err := r.Spec.Validate(); err != nil {
		return "", err
	}
	r.runID = r.Stamp
	if r.runID == "" {
		r.runID = time.Now().UTC().Format("20060102T150405Z")
	}
	r.dir = filepath.Join(r.OutRoot, r.runID)
	for _, sub := range []string{"logs", "analysis"} {
		if err := os.MkdirAll(filepath.Join(r.dir, sub), 0o755); err != nil {
			return "", err
		}
	}
	log := r.Log
	if log == nil {
		log = io.Discard
	}

	man := telemetry.NewManifest("paperrun", os.Args[1:], r.Spec)
	man.Seed = r.Spec.Seed
	var rows []Row
	var runErr error
	for _, e := range r.Spec.Experiments {
		fmt.Fprintf(log, "paperrun: %s (%s, system %s)\n", e.ID, e.Kind, e.system())
		expRows, err := r.runExperiment(ctx, e, man)
		rows = append(rows, expRows...)
		if err != nil {
			runErr = err
			man.Error = err.Error()
			break
		}
	}

	if len(rows) > 0 {
		if err := r.writeResults(rows); err != nil && runErr == nil {
			runErr = err
		}
	}
	if err := man.WriteFile(filepath.Join(r.dir, "manifest.json")); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return r.dir, runErr
	}

	// Analysis: grouped statistics + generated Markdown tables.
	done := man.Phase("analyze")
	if err := AnalyzeDir(r.dir); err != nil {
		return r.dir, err
	}
	done()
	if err := man.WriteFile(filepath.Join(r.dir, "manifest.json")); err != nil {
		return r.dir, err
	}
	fmt.Fprintf(log, "paperrun: wrote %s (%d result rows)\n", r.dir, len(rows))
	return r.dir, nil
}

// runExperiment executes one experiment with its own log file and manifest
// phase.
func (r *Runner) runExperiment(ctx context.Context, e Experiment, man *telemetry.Manifest) ([]Row, error) {
	lf, err := os.Create(filepath.Join(r.dir, "logs", e.ID+".log"))
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	done := man.Phase(e.ID)
	rows, err := r.runKind(ctx, e, lf)
	done()
	if err != nil {
		fmt.Fprintf(lf, "ERROR: %v\n", err)
		return rows, err
	}
	return rows, nil
}

// writeResults writes results.csv into the run directory.
func (r *Runner) writeResults(rows []Row) error {
	f, err := os.Create(filepath.Join(r.dir, "results.csv"))
	if err != nil {
		return err
	}
	if err := WriteResults(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
