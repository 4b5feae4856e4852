// Command explore runs the communication-architecture design-space
// exploration of §5.3: an exhaustive sweep of bus-master priority
// assignments × DMA block sizes for the TCP/IP subsystem, one power
// co-estimation per point, rendered as the Fig 7 energy grid.
//
// Example:
//
//	explore -packets 3 -dma 2,4,8,16,32,64,128
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/systems"
	"repro/internal/telemetry"
)

func main() {
	var (
		packets   = flag.Int("packets", 3, "packets per co-estimation")
		dmaList   = flag.String("dma", "2,4,8,16,32,64,128", "comma-separated DMA sizes")
		ecache    = flag.Bool("ecache", false, "accelerate each point with energy caching")
		attrib    = flag.Bool("attrib", false, "enable the energy attribution ledger on every point")
		shadow    = flag.Float64("shadow-rate", 0, "shadow-audit this fraction of accelerated serves (0..1)")
		workers   = flag.Int("j", runtime.NumCPU(), "parallel co-estimations")
		verbose   = flag.Bool("v", false, "print per-point progress metrics to stderr")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address during the sweep (e.g. localhost:6060)")
		manifest  = flag.String("manifest", "", "write a JSON run manifest (config, versions, phase timings) to this path")
		traceChr  = flag.String("trace-chrome", "", "write the sweep's span trace as a Chrome/Perfetto trace_event file (open in chrome://tracing or ui.perfetto.dev)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var rootSpan *telemetry.Span
	if *traceChr != "" {
		f, err := os.Create(*traceChr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
		sink := telemetry.Synchronized(telemetry.NewChromeSink(f))
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "explore: trace sink: %v\n", err)
			}
			f.Close()
		}()
		id := telemetry.NewTraceID()
		ctx = telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(sink, id))
		ctx, rootSpan = telemetry.StartSpanWith(ctx, "sweep", "explore", 0)
		fmt.Fprintf(os.Stderr, "explore: trace id %s -> %s\n", id, *traceChr)
	}

	if *debugAddr != "" {
		// Context-bound: an interrupt shuts the server down gracefully even
		// before the deferred shutdown runs.
		addr, shutdown, err := telemetry.ServeDebugContext(ctx, *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: debug server: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "explore: debug endpoint on http://%s/ (/metrics, /debug/pprof/)\n", addr)
	}

	var dmas []int
	for _, s := range strings.Split(*dmaList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "explore: bad DMA size %q\n", s)
			os.Exit(1)
		}
		dmas = append(dmas, v)
	}

	p := systems.DefaultTCPIP()
	p.Packets = *packets
	var muts []explore.Mutator
	if *ecache {
		muts = append(muts, experiments.ECacheOn)
	}
	if *attrib {
		muts = append(muts, func(cfg *core.Config) { cfg.Attribution = true })
	}
	if *shadow > 0 {
		muts = append(muts, func(cfg *core.Config) { cfg.ShadowAudit = audit.DefaultParams(*shadow) })
	}
	var mutate explore.Mutator
	if len(muts) > 0 {
		mutate = func(cfg *core.Config) {
			for _, m := range muts {
				m(cfg)
			}
		}
	}

	var summary engine.SweepSummary
	opts := engine.Options{Workers: *workers}
	opts.OnPoint = func(m engine.PointMetrics) {
		summary.Observe(m)
		if *verbose {
			fmt.Fprintln(os.Stderr, "explore:", m)
		}
	}

	var man *telemetry.Manifest
	if *manifest != "" {
		man = telemetry.NewManifest("explore", os.Args[1:], map[string]any{
			"packets": *packets, "dma": dmas, "ecache": *ecache, "workers": *workers,
		})
	}

	start := time.Now()
	var sweepDone func()
	if man != nil {
		sweepDone = man.Phase("sweep")
	}
	points, err := explore.Sweep(ctx, p, []int{0, 1, 2, 3, 4, 5}, dmas, mutate, opts)
	rootSpan.End()
	if sweepDone != nil {
		sweepDone()
	}
	if man != nil {
		if err != nil {
			man.Error = err.Error()
		}
		if werr := man.WriteFile(*manifest); werr != nil {
			fmt.Fprintf(os.Stderr, "explore: manifest: %v\n", werr)
		}
	}
	if err != nil {
		// The sweep error is already "explore: ..."-prefixed by the library.
		fmt.Fprintf(os.Stderr, "%v (%d of %d points completed)\n", err, len(points), 6*len(dmas))
		os.Exit(1)
	}
	wall := time.Since(start)

	fmt.Printf("design space: 6 priority assignments x %d DMA sizes = %d points, explored in %v\n",
		len(dmas), len(points), wall.Round(time.Millisecond))
	rowLabels := make([]string, 6)
	colLabels := make([]string, len(dmas))
	for j, d := range dmas {
		colLabels[j] = fmt.Sprintf("dma%d", d)
	}
	vals := make([][]float64, 6)
	idx := 0
	for i := 0; i < 6; i++ {
		rowLabels[i] = systems.PriorityPermName(i)
		vals[i] = make([]float64, len(dmas))
		for j := range dmas {
			vals[i][j] = float64(points[idx].Energy) / 1e-6
			idx++
		}
	}
	report.Grid(os.Stdout, rowLabels, colLabels, vals, "uJ")

	min := explore.Min(points)
	fmt.Printf("minimum energy %v at priority %s, DMA %d\n", min.Energy, min.PermName(), min.DMASize)
	fmt.Print(summary.String())
}
