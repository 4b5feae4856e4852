// Command paperrun is the paper-grade experiment harness: it executes a
// declarative experiments.json grid through pkg/coest and writes a
// timestamped, provenance-carrying run directory under paper_runs/, then
// groups the repeats into statistics and renders every figure and table of
// the paper's evaluation as Markdown, the Fig 3 parameter file beside them.
// With -check it diffs the fresh run against a committed baseline run and
// exits non-zero when an answer (energies, counters, error budgets) drifts
// beyond tolerance; wall times are reported but never gated.
//
// Examples:
//
//	paperrun                                     # built-in paper-scale grid
//	paperrun -spec scripts/paper/experiments.json
//	paperrun -spec ... -check paper_runs/baseline
//	paperrun -analyze paper_runs/20260809T120000Z # re-analyze, no re-run
//	paperrun -print-spec > experiments.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/paper"
	"repro/internal/telemetry"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "experiments.json grid (empty = built-in paper-scale default)")
		outRoot   = flag.String("o", "paper_runs", "parent directory for run directories")
		stamp     = flag.String("stamp", "", "fixed run id instead of a UTC timestamp (for committed baselines)")
		analyze   = flag.String("analyze", "", "re-analyze this existing run directory instead of running")
		check     = flag.String("check", "", "baseline run directory to diff against (exit 1 on drift)")
		repeats   = flag.Int("repeats", 0, "override the spec's repeat count")
		packets   = flag.Int("packets", 0, "override the spec's packet count")
		seed      = flag.Int64("seed", 0, "override the spec's workload seed")
		printSpec = flag.Bool("print-spec", false, "print the built-in default spec as JSON and exit")
		traceChr  = flag.String("trace-chrome", "", "write the run's span trace as a Chrome/Perfetto trace_event file")
	)
	flag.Parse()

	if *printSpec {
		b, err := json.MarshalIndent(paper.DefaultSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}

	// -analyze: re-summarize an existing run directory, optionally gating it
	// against a baseline, without re-running any experiment.
	if *analyze != "" {
		if err := paper.AnalyzeDir(*analyze); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "paperrun: re-analyzed %s\n", *analyze)
		if *check != "" {
			runCheck(*check, *analyze)
		}
		return
	}

	spec := paper.DefaultSpec()
	if *specPath != "" {
		var err error
		spec, err = paper.LoadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
	}
	if *repeats > 0 {
		spec.Repeats = *repeats
	}
	if *packets > 0 {
		spec.Packets = *packets
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	ctx := context.Background()
	if *traceChr != "" {
		f, err := os.Create(*traceChr)
		if err != nil {
			fatal(err)
		}
		sink := telemetry.Synchronized(telemetry.NewChromeSink(f))
		id := telemetry.NewTraceID()
		var rootSpan *telemetry.Span
		ctx, rootSpan = telemetry.StartSpanWith(
			telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(sink, id)),
			"paperrun", strings.Join(os.Args[1:], " "), 0)
		defer func() {
			rootSpan.End()
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "paperrun: trace sink:", err)
			}
			f.Close()
		}()
		fmt.Fprintf(os.Stderr, "paperrun: trace id %s -> %s\n", id, *traceChr)
	}

	r := &paper.Runner{Spec: spec, OutRoot: *outRoot, Stamp: *stamp, Log: os.Stderr}
	dir, err := r.Run(ctx)
	if err != nil {
		fatal(err)
	}
	if *check != "" {
		runCheck(*check, dir)
	}
}

// runCheck diffs fresh against baseline, printing the report and exiting 1
// on drift.
func runCheck(baselineDir, freshDir string) {
	res, err := paper.CheckDirs(baselineDir, freshDir)
	if err != nil {
		fatal(err)
	}
	res.Report(os.Stdout)
	if !res.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrun:", err)
	os.Exit(1)
}
