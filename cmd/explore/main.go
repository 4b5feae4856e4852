// Command explore runs the communication-architecture design-space
// exploration of §5.3: an exhaustive sweep of bus-master priority
// assignments × DMA block sizes for the TCP/IP subsystem, one power
// co-estimation per point through coest.Sweep, rendered as the Fig 7 energy
// grid with every point at the minimum.
//
// The grid and the minima go to stdout and are identical for any -j; the
// wall time and the sweep summary go to stderr.
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

	"repro/internal/ecache"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/systems"
	"repro/internal/telemetry"
	"repro/pkg/coest"
)

func main() {
	var (
		packets   = flag.Int("packets", 3, "packets per co-estimation")
		dmaList   = flag.String("dma", "2,4,8,16,32,64,128", "comma-separated DMA sizes")
		ecacheOn  = flag.Bool("ecache", false, "accelerate each point with energy caching")
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

	p := coest.DefaultTCPIPParams()
	p.Packets = *packets
	perms := []int{0, 1, 2, 3, 4, 5}
	grid := coest.TCPIPGrid(p, perms, dmas)

	var summary coest.SweepSummary
	opts := []coest.Option{coest.WithWorkers(*workers), coest.WithTelemetry(&summary)}
	if *verbose {
		opts = append(opts, coest.WithProgress(func(m coest.PointMetrics) {
			fmt.Fprintln(os.Stderr, "explore:", m)
		}))
	}
	if *ecacheOn {
		opts = append(opts, coest.WithEnergyCacheParams(ecache.Table1Params()))
	}
	if *attrib {
		opts = append(opts, coest.WithAttribution())
	}
	if *shadow > 0 {
		opts = append(opts, coest.WithShadowAudit(*shadow))
	}

	var man *telemetry.Manifest
	if *manifest != "" {
		man = telemetry.NewManifest("explore", os.Args[1:], map[string]any{
			"packets": *packets, "dma": dmas, "ecache": *ecacheOn, "workers": *workers,
		})
	}

	start := time.Now()
	var sweepDone func()
	if man != nil {
		sweepDone = man.Phase("sweep")
	}
	results, err := coest.Sweep(ctx, grid, opts...)
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
		fmt.Fprintf(os.Stderr, "explore: %v (%d of %d points completed)\n", err, len(results), grid.N)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "explore: explored in %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("design space: %d priority assignments x %d DMA sizes = %d points\n",
		len(perms), len(dmas), grid.N)
	rowLabels := make([]string, len(perms))
	colLabels := make([]string, len(dmas))
	for j, d := range dmas {
		colLabels[j] = fmt.Sprintf("dma%d", d)
	}
	vals := make([][]float64, len(perms))
	energies := make([]float64, grid.N)
	for i, perm := range perms {
		rowLabels[i] = systems.PriorityPermName(perm)
		vals[i] = make([]float64, len(dmas))
		for j := range dmas {
			energies[i*len(dmas)+j] = results[i*len(dmas)+j].Report.Total.Joules()
			vals[i][j] = energies[i*len(dmas)+j] / 1e-6
		}
	}
	report.Grid(os.Stdout, rowLabels, colLabels, vals, "uJ")

	mins := stats.ArgMins(energies)
	fmt.Printf("minimum energy %v at %d point(s):\n", results[mins[0]].Report.Total, len(mins))
	for _, i := range mins {
		fmt.Printf("  priority %s, DMA %d\n", rowLabels[i/len(dmas)], dmas[i%len(dmas)])
	}
	fmt.Fprint(os.Stderr, summary.String())
}
