// Command repro regenerates the paper's evaluation artifacts — every table
// and figure — on the reproduction framework:
//
//	Fig 1(b)  separate vs co-estimation energies (prodcons)
//	Fig 3     macro-operation characterization parameter file
//	Fig 4(b)  per-path energy histograms (caching intuition)
//	Table 1   caching speedup/accuracy vs DMA size
//	Table 2   macro-modeling speedup/accuracy vs DMA size
//	Fig 6     macro-modeling relative accuracy scatter
//	Fig 7     priority x DMA design-space exploration
//	§4.3      statistical sampling / bus-trace compaction
//
// Example:
//
//	repro -all
//	repro -table1 -packets 16 -repeats 3
//
// repro renders each artifact once as prose. For the statistics-carrying
// form — repeated runs, grouped mean/std/CI95, provenance manifests and a
// baseline regression gate — use cmd/paperrun, the paper-grade experiment
// harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/macromodel"
	"repro/internal/telemetry"
)

func main() {
	var (
		all       = flag.Bool("all", false, "regenerate everything")
		fig1      = flag.Bool("fig1", false, "Fig 1(b): separate vs co-estimation")
		fig3      = flag.Bool("fig3", false, "Fig 3: characterization parameter file")
		fig4      = flag.Bool("fig4", false, "Fig 4(b): per-path energy histograms")
		table1    = flag.Bool("table1", false, "Table 1: caching speedup/accuracy")
		table2    = flag.Bool("table2", false, "Table 2: macro-modeling speedup/accuracy")
		fig6      = flag.Bool("fig6", false, "Fig 6: macro-modeling relative accuracy")
		fig7      = flag.Bool("fig7", false, "Fig 7: design-space exploration")
		sampling  = flag.Bool("sampling", false, "sec. 4.3: sampling / compaction")
		partition = flag.Bool("partition", false, "HW/SW partition exploration (prodcons)")
		quality   = flag.Bool("quality", false, "estimation quality: attribution ledger, error budget, shadow audit")
		shadow    = flag.Float64("shadow-rate", 0.25, "shadow-audit rate for -quality (0..1)")
		packets   = flag.Int("packets", 0, "packets per Table 1/2 run")
		repeats   = flag.Int("repeats", 0, "wall-time measurement repeats")
		dmaList   = flag.String("dma", "", "comma-separated DMA sizes for Tables 1/2")
		workers   = flag.Int("j", 0, "sweep worker pool size (0 = GOMAXPROCS; use 1 for quietest wall-time columns)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address while experiments run (e.g. localhost:6060)")
		traceChr  = flag.String("trace-chrome", "", "write the experiments' span trace as a Chrome/Perfetto trace_event file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
		}
	}()

	if *debugAddr != "" {
		addr, shutdown, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "repro: debug endpoint on http://%s/ (/metrics, /debug/pprof/)\n", addr)
	}

	p := experiments.Default()
	if *traceChr != "" {
		f, err := os.Create(*traceChr)
		if err != nil {
			fatal(err)
		}
		sink := telemetry.Synchronized(telemetry.NewChromeSink(f))
		id := telemetry.NewTraceID()
		ctx, rootSpan := telemetry.StartSpanWith(
			telemetry.ContextWithSpanScope(context.Background(), telemetry.NewSpanScope(sink, id)),
			"repro", strings.Join(os.Args[1:], " "), 0)
		p.Ctx = ctx
		defer func() {
			rootSpan.End()
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "repro: trace sink:", err)
			}
			f.Close()
		}()
		fmt.Fprintf(os.Stderr, "repro: trace id %s -> %s\n", id, *traceChr)
	}
	if *packets > 0 {
		p.Packets = *packets
	}
	if *repeats > 0 {
		p.Repeats = *repeats
	}
	p.Workers = *workers
	if *dmaList != "" {
		p.DMASizes = nil
		for _, s := range strings.Split(*dmaList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad DMA size %q", s))
			}
			p.DMASizes = append(p.DMASizes, v)
		}
	}

	w := os.Stdout
	any := false
	needMacro := *all || *fig3 || *table2 || *fig6

	var tbl *macromodel.Table
	if needMacro {
		var err error
		tbl, err = experiments.Fig3(w)
		if err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *fig1 {
		if _, err := experiments.Fig1(w); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *fig4 {
		if _, err := experiments.Fig4(w); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *table1 {
		if _, err := experiments.Table1(w, p); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *table2 {
		if _, err := experiments.Table2(w, p, tbl); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *fig6 {
		if _, err := experiments.Fig6(w, p, tbl); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *fig7 {
		if _, err := experiments.Fig7(w, p); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *sampling {
		if _, err := experiments.Sampling(w, p); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *partition {
		if _, err := experiments.Partition(w); err != nil {
			fatal(err)
		}
		any = true
	}
	if *all || *quality {
		if _, err := experiments.Quality(w, p, *shadow); err != nil {
			fatal(err)
		}
		any = true
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
