// Command coest runs one power co-estimation (or the separate-estimation
// baseline) on a named case-study system and prints the energy report —
// the command-line face of the paper's tool, built on pkg/coest.
//
// Examples:
//
//	coest -system tcpip -packets 6 -dma 16
//	coest -system tcpip -ecache -cachereport
//	coest -system prodcons -mode separate
//	coest -system automotive -waveform
//	coest -serve http://localhost:8350 -system tcpip -packets 6 -dma 16
//
// With -serve the estimation is delegated to a running coestd daemon (see
// cmd/coestd), whose warm sessions skip recompilation on repeat requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/gate"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
	"repro/pkg/coest/coestclient"
)

func main() {
	var (
		system    = flag.String("system", "tcpip", "system to estimate: tcpip, prodcons, automotive")
		file      = flag.String("file", "", "load the system from a .cfsm source file instead")
		mode      = flag.String("mode", "co", "estimation mode: co or separate")
		packets   = flag.Int("packets", 0, "packet count override (tcpip/prodcons)")
		dma       = flag.Int("dma", 0, "bus DMA block size override")
		perm      = flag.Int("perm", 0, "tcpip bus-priority permutation (0..5)")
		useCache  = flag.Bool("ecache", false, "enable energy & delay caching (sec. 4.2)")
		useMacro  = flag.Bool("macromodel", false, "enable software power macro-modeling (sec. 4.1)")
		useSamp   = flag.Bool("sampling", false, "enable reaction-level statistical sampling (sec. 4.3)")
		dsp       = flag.Bool("dsp", false, "use the data-dependent DSP-flavored power model")
		waveform  = flag.Bool("waveform", false, "record and summarize the power waveform")
		waveCSV   = flag.String("waveform-csv", "", "write the per-component power waveform as a CSV file")
		vlogDir   = flag.String("verilog", "", "export each HW block's synthesized netlist as Verilog into this directory")
		trace     = flag.Bool("trace", false, "print the simulation master's event trace")
		traceJSON = flag.String("trace-jsonl", "", "write the typed event stream as JSON lines to this path")
		traceChr  = flag.String("trace-chrome", "", "write the event stream as a Chrome/Perfetto trace_event file (open in chrome://tracing or ui.perfetto.dev)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address during the run (e.g. localhost:6060)")
		cacheRep  = flag.Bool("cachereport", false, "print the energy-cache path snapshot (Fig 4c)")
		breakdown = flag.Bool("breakdown", false, "print per-transition energy (functional/power correlation)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
		asmDump   = flag.Bool("asm", false, "print the synthesized SPARC program listing")
		exportSys = flag.Bool("export", false, "print the system in the textual CFSM language and exit")
		paramFile = flag.String("params", "", "macro-model parameter file (skips characterization; implies -macromodel)")
		attribRep = flag.Bool("attrib", false, "print where the energy went: attribution by component, process, bus master, technique and path")
		shadow    = flag.Float64("shadow-rate", 0, "shadow-audit this fraction of accelerated serves on the reference estimator (0..1)")
		serveURL  = flag.String("serve", "", "delegate the estimation to a coestd daemon at this base URL (e.g. http://localhost:8350)")
		deadline  = flag.Duration("deadline", 0, "with -serve: per-request wall-clock deadline (0 = server default)")
	)
	flag.Parse()

	if err := checkOverrides(*packets, *dma, *perm); err != nil {
		fatal(err)
	}
	if *serveURL != "" {
		if err := runRemote(*serveURL, *file, *system, *packets, *dma,
			*useCache, *useMacro, *useSamp, *deadline, *asJSON); err != nil {
			fatal(err)
		}
		return
	}

	sys, opts, err := assemble(*file, *system, *packets, *dma, *perm)
	if err != nil {
		fatal(err)
	}
	switch *mode {
	case "co":
	case "separate":
		opts = append(opts, coest.WithSeparateEstimation())
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *dsp {
		opts = append(opts, coest.WithDSPModel())
	}
	if *useCache {
		opts = append(opts, coest.WithEnergyCache())
	}
	if *paramFile != "" {
		f, err := os.Open(*paramFile)
		if err != nil {
			fatal(err)
		}
		pf, err := coest.ParseParamFile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		opts = append(opts, coest.WithMacroModelParams(pf))
	} else if *useMacro {
		fmt.Fprintln(os.Stderr, "characterizing macro-operation library...")
		opts = append(opts, coest.WithMacroModel())
	}
	if *useSamp {
		opts = append(opts, coest.WithSampling())
	}
	if *attribRep {
		opts = append(opts, coest.WithAttribution())
	}
	if *shadow > 0 {
		opts = append(opts, coest.WithShadowAudit(*shadow))
	}
	if *waveform || *waveCSV != "" {
		opts = append(opts, coest.WithWaveform(10*time.Microsecond))
	}
	var sinks []coest.TraceSink
	if *trace {
		sinks = append(sinks, coest.NewTextTraceSink(func(s string) { fmt.Println(s) }))
	}
	var sinkFiles []*os.File
	for _, spec := range []struct {
		path string
		mk   func(io.Writer) coest.TraceSink
	}{
		{*traceJSON, coest.NewJSONLTraceSink},
		{*traceChr, coest.NewChromeTraceSink},
	} {
		if spec.path == "" {
			continue
		}
		f, err := os.Create(spec.path)
		if err != nil {
			fatal(err)
		}
		sinkFiles = append(sinkFiles, f)
		sinks = append(sinks, spec.mk(f))
	}
	ctx := context.Background()
	var rootSpan *telemetry.Span
	if len(sinks) > 0 {
		// One synchronized sink carries both streams: the simulated-time
		// event stream (via WithTraceSink, whose own Synchronized wrap is
		// idempotent) and the wall-clock request spans below.
		sink := telemetry.Synchronized(coest.MultiTraceSink(sinks...))
		opts = append(opts, coest.WithTraceSink(sink))
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "coest: trace sink:", err)
			}
			for _, f := range sinkFiles {
				f.Close()
			}
		}()
		id := telemetry.NewTraceID()
		scope := telemetry.NewSpanScope(sink, id)
		ctx = telemetry.ContextWithSpanScope(ctx, scope)
		ctx, rootSpan = telemetry.StartSpanWith(ctx, "run", *system, 0)
		fmt.Fprintf(os.Stderr, "coest: trace id %s\n", id)
	}
	if *debugAddr != "" {
		addr, shutdown, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "coest: debug endpoint on http://%s/ (/metrics, /debug/pprof/)\n", addr)
	}

	if *exportSys {
		fmt.Print(coest.PrintCFSM(sys))
		return
	}
	sess, err := coest.NewSession(sys, opts...)
	if err != nil {
		fatal(err)
	}
	if *asmDump {
		if prog := sess.SWProgram(); prog != nil {
			fmt.Print(prog.Disassemble())
		} else {
			fmt.Fprintln(os.Stderr, "no software partition to disassemble")
		}
	}
	if *vlogDir != "" {
		for name, nl := range sess.HWNetlists() {
			path := filepath.Join(*vlogDir, name+".v")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := gate.WriteVerilog(f, nl); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			st := nl.Size()
			fmt.Fprintf(os.Stderr, "wrote %s (%d gates, %d flops)\n", path, st.Gates, st.DFFs)
		}
	}
	rep, err := sess.Estimate(ctx)
	rootSpan.End()
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(rep)

	if rep.Attribution != nil {
		fmt.Println("  energy attribution:")
		rep.Attribution.Render(os.Stdout)
	}
	if rep.Budget != nil {
		fmt.Println("  error budget:")
		rep.Budget.Render(os.Stdout)
	}
	if rep.Audit != nil {
		fmt.Println("  shadow audit:")
		rep.Audit.Render(os.Stdout)
	}

	if *breakdown {
		fmt.Println("  per-transition energy:")
		for _, m := range rep.Machines {
			for _, tr := range m.Transitions {
				fmt.Printf("    %-14s %-12s %8d reactions  %12v\n",
					m.Name, tr.Name, tr.Reactions, tr.Energy)
			}
		}
	}

	if len(rep.EnvEvents) > 0 {
		fmt.Println("  environment events:")
		for _, e := range rep.EnvEvents {
			fmt.Printf("    %12v  %s = %d\n", e.Time, e.Name, e.Value)
		}
	}
	if *waveform && rep.Waveform != nil {
		at, peak := rep.Waveform.Peak()
		fmt.Printf("  peak power %v at %v\n", peak, at)
	}
	if *waveCSV != "" && rep.Waveform != nil {
		if err := writeWaveformCSV(*waveCSV, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("  power waveform written to %s\n", *waveCSV)
	}
	if *cacheRep {
		rows := sess.SWCacheReport()
		if rows == nil {
			fmt.Println("  (energy cache disabled; pass -ecache)")
		} else {
			fmt.Println("  energy cache snapshot (Fig 4c):")
			fmt.Printf("    %-20s %8s %12s %12s %s\n", "path", "calls", "mean", "stddev", "cached")
			for _, r := range rows {
				fmt.Printf("    m%d/%016x %8d %12v %12v %v\n",
					r.Key.Machine, uint64(r.Key.Path), r.Calls, r.Mean, r.StdDev, r.Cached)
			}
		}
	}
}

// checkOverrides rejects numeric overrides no system can take; 0 keeps
// meaning "no override" for -packets and -dma.
func checkOverrides(packets, dma, perm int) error {
	switch {
	case packets < 0:
		return fmt.Errorf("-packets %d is negative", packets)
	case dma < 0:
		return fmt.Errorf("-dma %d is negative", dma)
	case perm < 0 || perm > 5:
		return fmt.Errorf("-perm %d is outside 0..5", perm)
	}
	return nil
}

// assemble builds the system under estimation — from a .cfsm source file or
// a named case study — together with the options its overrides imply.
func assemble(file, system string, packets, dma, perm int) (*coest.System, []coest.Option, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		sys, err := coest.ParseCFSM(strings.TrimSuffix(filepath.Base(file), ".cfsm"), string(src))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", file, err)
		}
		opts := []coest.Option{coest.WithMaxSimTime(50 * time.Millisecond)}
		if dma > 0 {
			opts = append(opts, coest.WithDMASize(dma))
		}
		return sys, opts, nil
	}

	var opts []coest.Option
	switch system {
	case "tcpip":
		p := coest.DefaultTCPIPParams()
		if packets > 0 {
			p.Packets = packets
		}
		if dma > 0 {
			p.DMASize = dma
		}
		p.PriorityPerm = perm
		return coest.TCPIP(p), opts, nil
	case "prodcons":
		p := coest.DefaultProdConsParams()
		if packets > 0 {
			p.Packets = packets
		}
		if dma > 0 {
			opts = append(opts, coest.WithDMASize(dma))
		}
		return coest.ProdCons(p), opts, nil
	case "automotive":
		if dma > 0 {
			opts = append(opts, coest.WithDMASize(dma))
		}
		return coest.Automotive(coest.DefaultAutomotiveParams()), opts, nil
	}
	return nil, nil, fmt.Errorf("unknown system %q (want tcpip, prodcons or automotive)", system)
}

// writeWaveformCSV exports the waveform through the library's CSV accessor
// — the same series the paper harness records under analysis/.
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

// writeJSON emits a machine-readable summary of the report.
func writeJSON(w io.Writer, rep *coest.Report) error {
	type transJSON struct {
		Name      string  `json:"name"`
		Reactions uint64  `json:"reactions"`
		EnergyJ   float64 `json:"energy_j"`
	}
	type machineJSON struct {
		Name        string      `json:"name"`
		Mapping     string      `json:"mapping"`
		Reactions   uint64      `json:"reactions"`
		EnergyJ     float64     `json:"energy_j"`
		WaitJ       float64     `json:"wait_j"`
		Transitions []transJSON `json:"transitions,omitempty"`
	}
	out := struct {
		System      string                    `json:"system"`
		Mode        string                    `json:"mode"`
		SimulatedNS int64                     `json:"simulated_ns"`
		WallNS      int64                     `json:"wall_ns"`
		TotalJ      float64                   `json:"total_j"`
		SWJ         float64                   `json:"sw_j"`
		HWJ         float64                   `json:"hw_j"`
		BusJ        float64                   `json:"bus_j"`
		CacheJ      float64                   `json:"cache_j"`
		RTOSJ       float64                   `json:"rtos_j"`
		ISSCalls    uint64                    `json:"iss_calls"`
		GateExecs   uint64                    `json:"gate_execs"`
		Machines    []machineJSON             `json:"machines"`
		Attribution *coest.AttributionSummary `json:"attribution,omitempty"`
		Audit       *coest.AuditReport        `json:"audit,omitempty"`
		Budget      *coest.ErrorBudget        `json:"error_budget,omitempty"`
	}{
		System:      rep.System,
		Mode:        rep.Mode.String(),
		SimulatedNS: int64(rep.SimulatedTime),
		WallNS:      rep.Wall.Nanoseconds(),
		TotalJ:      rep.Total.Joules(),
		SWJ:         rep.SWEnergy.Joules(),
		HWJ:         rep.HWEnergy.Joules(),
		BusJ:        rep.BusEnergy.Joules(),
		CacheJ:      rep.CacheEnergy.Joules(),
		RTOSJ:       rep.RTOSEnergy.Joules(),
		ISSCalls:    rep.ISSCalls,
		GateExecs:   rep.GateExecs,
		Attribution: rep.Attribution,
		Audit:       rep.Audit,
		Budget:      rep.Budget,
	}
	for _, m := range rep.Machines {
		mj := machineJSON{
			Name:      m.Name,
			Mapping:   m.Mapping.String(),
			Reactions: m.Reactions,
			EnergyJ:   m.Energy().Joules(),
			WaitJ:     m.WaitEnergy.Joules(),
		}
		for _, tr := range m.Transitions {
			mj.Transitions = append(mj.Transitions, transJSON{
				Name: tr.Name, Reactions: tr.Reactions, EnergyJ: tr.Energy.Joules(),
			})
		}
		out.Machines = append(out.Machines, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runRemote sends the estimation to a coestd daemon (or a coest-router
// front) through the coestclient library instead of running it in process.
// Only the knobs in the service's wire API travel; flags outside it (modes,
// waveforms, traces) stay local-only.
func runRemote(base, file, system string, packets, dma int, ecache, macro, sampling bool, deadline time.Duration, asJSON bool) error {
	if file != "" {
		return fmt.Errorf("-serve estimates named case-study systems only (got -file)")
	}
	cli := coestclient.New(base)
	resp, err := cli.Estimate(context.Background(), coestapi.Request{
		System:     system,
		Packets:    packets,
		DeadlineMS: int(deadline / time.Millisecond),
		Points: []coestapi.PointSpec{{
			DMASize:  dma,
			ECache:   ecache,
			Macro:    macro,
			Sampling: sampling,
		}},
	})
	if err != nil {
		var apiErr *coestclient.APIError
		if errors.Is(err, coestclient.ErrOverloaded) && errors.As(err, &apiErr) {
			return fmt.Errorf("server busy (retry after %v): %s", apiErr.RetryAfter, apiErr.Message)
		}
		return err
	}
	if len(resp.Points) != 1 {
		return fmt.Errorf("server returned %d points, want 1", len(resp.Points))
	}
	pt := resp.Points[0]
	if pt.Error != "" {
		return fmt.Errorf("server: %s", pt.Error)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	warmth := "cold session (compiled for this request)"
	if resp.Warm {
		warmth = "warm session (no recompilation)"
	}
	where := base
	if resp.Shard != "" {
		where += " (shard " + resp.Shard + ")"
	}
	fmt.Printf("system %s via %s: %s\n", resp.System, where, warmth)
	if resp.TraceID != "" {
		fmt.Printf("  trace %s (%s/debug/requests?trace=%s)\n", resp.TraceID, strings.TrimSuffix(base, "/"), resp.TraceID)
	}
	fmt.Printf("  simulated %v\n", units.Time(pt.SimulatedNS))
	fmt.Printf("  TOTAL %v (sw %v, hw %v)\n",
		units.Energy(pt.TotalJ), units.Energy(pt.SWJ), units.Energy(pt.HWJ))
	fmt.Printf("  iss calls %d, iss instructions %d\n", pt.ISSCalls, pt.ISSInsts)
	if b := pt.Budget; b != nil {
		fmt.Printf("  error budget: ±%v bound, ±%v ci95", units.Energy(b.BoundJ), units.Energy(b.CI95J))
		if b.Uncalibrated {
			fmt.Printf(" (uncalibrated)")
		}
		fmt.Println()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coest:", err)
	os.Exit(1)
}
