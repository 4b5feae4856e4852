package paper

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro/internal/ecache"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/pkg/coest"
)

// ecacheParams is the Table 1 caching aggressiveness — the canonical
// thresholds of ecache.Table1Params.
var ecacheParams = ecache.Table1Params()

// qualityShadowRate is the share of cached serves the quality kind re-runs
// on the reference estimator.
const qualityShadowRate = 0.25

// tcpipParams resolves the TCP/IP scenario of one experiment point; dma 0
// keeps the system's default DMA size.
func (r *Runner) tcpipParams(e Experiment, dma int) coest.TCPIPParams {
	p := coest.DefaultTCPIPParams()
	p.Packets = e.packets(r.Spec)
	if dma > 0 {
		p.DMASize = dma
	}
	p.Seed = uint32(r.Spec.Seed)
	return p
}

// buildSystem constructs the experiment's subject system for one point.
func (r *Runner) buildSystem(e Experiment, dma int) (*coest.System, error) {
	switch e.system() {
	case "tcpip":
		return coest.TCPIP(r.tcpipParams(e, dma)), nil
	case "prodcons":
		p := coest.DefaultProdConsParams()
		p.Packets = e.packets(r.Spec)
		return coest.ProdCons(p), nil
	case "automotive":
		return coest.Automotive(coest.DefaultAutomotiveParams()), nil
	}
	return nil, fmt.Errorf("paper: unknown system %q", e.system())
}

// runKind dispatches one experiment to its executor, writing the
// human-readable rendering to log.
func (r *Runner) runKind(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	ctx, span := telemetry.StartSpanWith(ctx, "experiment", e.ID, 0)
	defer span.End()
	switch e.Kind {
	case KindSeparate:
		return r.runSeparate(ctx, e, log)
	case KindCharacterize:
		return r.runCharacterize(e, log)
	case KindPathEnergy:
		return r.runPathEnergy(ctx, e, log)
	case KindTable1:
		return r.runTable(ctx, e, log, "ecache",
			[]coest.Option{coest.WithEnergyCacheParams(ecacheParams), coest.WithAttribution()})
	case KindTable2:
		rows, err := r.runTable(ctx, e, log, "macro",
			[]coest.Option{coest.WithMacroModel(), coest.WithAttribution()})
		if err == nil {
			renderFig6Scatter(log, rows)
		}
		return rows, err
	case KindTable3:
		return r.runTable(ctx, e, log, "sampling",
			[]coest.Option{coest.WithSampling(), coest.WithBusCompaction(32, 4), coest.WithAttribution()})
	case KindDSE:
		return r.runDSE(ctx, e, log)
	case KindPartition:
		return r.runPartition(ctx, e, log)
	case KindQuality:
		return r.runQuality(ctx, e, log)
	case KindServing:
		return r.runServing(ctx, e, log)
	case KindWaveform:
		return r.runWaveform(ctx, e, log)
	}
	return nil, fmt.Errorf("paper: unknown kind %q", e.Kind)
}

// baseRow seeds a row with the experiment's grid coordinates.
func (r *Runner) baseRow(e Experiment, variant string, dma, rep int) Row {
	return Row{
		RunID:      r.runID,
		Experiment: e.ID,
		Kind:       e.Kind,
		System:     e.system(),
		Variant:    variant,
		DMA:        dma,
		Packets:    e.packets(r.Spec),
		Repeat:     rep,
		Seed:       r.Spec.Seed,
	}
}

// runTable executes a Tables 1-3 style comparison: for every DMA size, the
// base framework vs the accelerated variant, repeated on fresh sessions.
// Each repeat compiles its own session so repeats are independent (fresh
// energy caches, no cross-repeat warmth) and base/accel share one
// compilation within a repeat, the compile-once/estimate-many path the
// serving layer uses. Energies must be repeat-deterministic; the runner
// enforces it (repeat-determinism check). Runs with bus-trace compaction
// also log its ratio and error, the §4.3 text.
func (r *Runner) runTable(ctx context.Context, e Experiment, log io.Writer, accelName string, accelOpts []coest.Option) ([]Row, error) {
	var rows []Row
	var notes []string
	repeats := e.repeats(r.Spec)
	for _, dma := range e.dmaSizes(r.Spec) {
		rowCtx, span := telemetry.StartSpanWith(ctx, "row", "dma", int64(dma))
		for rep := 0; rep < repeats; rep++ {
			sys, err := r.buildSystem(e, dma)
			if err != nil {
				span.End()
				return nil, err
			}
			sess, err := coest.NewSession(sys)
			if err != nil {
				span.End()
				return nil, fmt.Errorf("paper: %s dma %d: %w", e.ID, dma, err)
			}
			base := r.baseRow(e, "base", dma, rep)
			baseRep, err := sess.Estimate(rowCtx)
			if err != nil {
				span.End()
				return nil, fmt.Errorf("paper: %s dma %d base: %w", e.ID, dma, err)
			}
			base.fill(baseRep)

			accel := r.baseRow(e, accelName, dma, rep)
			accelRep, err := sess.Estimate(rowCtx, accelOpts...)
			if err != nil {
				span.End()
				return nil, fmt.Errorf("paper: %s dma %d %s: %w", e.ID, dma, accelName, err)
			}
			accel.fill(accelRep)
			rows = append(rows, base, accel)
			if bc := accelRep.BusCompaction; bc != nil && rep == 0 {
				notes = append(notes, fmt.Sprintf("  dma %d: bus trace compacted %.1fx with %.2f%% bus-energy error",
					dma, bc.Stats.CompressionRatio(), bc.ErrorPct()))
			}
		}
		span.End()
	}
	if err := checkRepeatDeterminism(rows); err != nil {
		return rows, fmt.Errorf("paper: %s: %w", e.ID, err)
	}
	renderTableLog(log, e, accelName, rows)
	if len(notes) > 0 {
		fmt.Fprintln(log, "§4.3 sequence compaction of the bus trace:")
		for _, n := range notes {
			fmt.Fprintln(log, n)
		}
	}
	return rows, nil
}

// checkRepeatDeterminism asserts that every (variant, dma) group reported
// the same energy on all repeats — fresh sessions make repeats bit-exact
// re-executions, so any spread means a determinism regression, exactly the
// kind of drift this harness exists to surface.
func checkRepeatDeterminism(rows []Row) error {
	first := map[[2]string]float64{}
	for _, row := range rows {
		k := [2]string{row.Variant, fmt.Sprint(row.DMA)}
		e0, ok := first[k]
		if !ok {
			first[k] = row.EnergyJ
			continue
		}
		if relDiff(row.EnergyJ, e0) > 1e-9 {
			return fmt.Errorf("repeat determinism: %s dma=%s repeat %d energy %.12g J != repeat 0 %.12g J",
				row.Variant, k[1], row.Repeat, row.EnergyJ, e0)
		}
	}
	return nil
}

// relDiff is |a-b| relative to max(|a|,|b|), 0 for equal values. Two
// values that differ and include a NaN or an infinity are +Inf apart, beyond
// every tolerance (the plain ratio would be NaN, which no `rel > tol` test
// catches).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// renderTableLog writes the per-repeat raw measurements of a table
// experiment as a terminal table.
func renderTableLog(w io.Writer, e Experiment, accelName string, rows []Row) {
	fmt.Fprintf(w, "%s (%s): base vs %s, per-repeat raw measurements\n", e.ID, e.Kind, accelName)
	t := report.NewTable("dma", "repeat", "variant", "energy", "wall", "iss calls", "budget bound")
	for _, row := range rows {
		t.Row(row.DMA, row.Repeat, row.Variant,
			energyString(row.EnergyJ), time.Duration(row.WallNS).Round(time.Microsecond).String(),
			row.ISSCalls, energyString(row.BudgetBoundJ))
	}
	t.Render(w)
}

// Serving-experiment variants.
const (
	servCold       = "cold"            // coest.Estimate: compile + run
	servWarm       = "warm"            // Session.Estimate on a compiled session
	servCachedCold = "warm-cached-1st" // first cache-enabled request (characterizes)
	servCachedWarm = "warm-cached-2nd" // repeat request on the persistent cache
)

// runServing measures the serving-path warmth ladder: a cold Estimate
// (compile + run), a warm Session.Estimate (rebind only), and a repeat
// request served from the session's persistent energy cache. Wall times are
// wall-clock around the call, so the cold variant pays compilation and the
// warm variants don't — that asymmetry is the point.
func (r *Runner) runServing(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	var rows []Row
	repeats := e.repeats(r.Spec)
	dma := e.dmaSizes(r.Spec)[0]
	for rep := 0; rep < repeats; rep++ {
		sys, err := r.buildSystem(e, dma)
		if err != nil {
			return nil, err
		}

		cold := r.baseRow(e, servCold, dma, rep)
		start := time.Now()
		coldRep, err := coest.Estimate(ctx, sys)
		coldWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("paper: %s cold: %w", e.ID, err)
		}
		cold.fill(coldRep)
		cold.WallNS = coldWall.Nanoseconds()

		sess, err := coest.NewSession(sys)
		if err != nil {
			return nil, fmt.Errorf("paper: %s session: %w", e.ID, err)
		}
		warm := r.baseRow(e, servWarm, dma, rep)
		start = time.Now()
		warmRep, err := sess.Estimate(ctx)
		warmWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("paper: %s warm: %w", e.ID, err)
		}
		warm.fill(warmRep)
		warm.WallNS = warmWall.Nanoseconds()
		// Warm non-cached requests are bit-identical to a cold Estimate —
		// the serve layer's core contract, re-proven on every harness run.
		if relDiff(warm.EnergyJ, cold.EnergyJ) > 1e-12 {
			return nil, fmt.Errorf("paper: %s: warm energy %.15g J != cold %.15g J",
				e.ID, warm.EnergyJ, cold.EnergyJ)
		}

		ecacheOpts := []coest.Option{coest.WithEnergyCacheParams(ecacheParams)}
		for i, variant := range []string{servCachedCold, servCachedWarm} {
			row := r.baseRow(e, variant, dma, rep)
			start = time.Now()
			rep2, err := sess.Estimate(ctx, ecacheOpts...)
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("paper: %s cached request %d: %w", e.ID, i+1, err)
			}
			row.fill(rep2)
			row.WallNS = wall.Nanoseconds()
			rows = append(rows, row)
		}
		rows = append(rows, cold, warm)
	}
	fmt.Fprintf(log, "%s (%s): serving warmth ladder (dma %d)\n", e.ID, e.Kind, dma)
	t := report.NewTable("variant", "repeat", "wall", "energy", "iss calls")
	for _, row := range rows {
		t.Row(row.Variant, row.Repeat,
			time.Duration(row.WallNS).Round(time.Microsecond).String(),
			energyString(row.EnergyJ), row.ISSCalls)
	}
	t.Render(log)
	return rows, nil
}

// runWaveform records the per-component power waveform (§3's "energy and
// power waveforms", §5.3's peak-power analysis), logging the peak and
// exporting the series of the first repeat as analysis/waveform-<id>.csv —
// through the same core.Waveform CSV accessor library users get.
func (r *Runner) runWaveform(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	var rows []Row
	repeats := e.repeats(r.Spec)
	dma := e.dmaSizes(r.Spec)[0]
	for rep := 0; rep < repeats; rep++ {
		sys, err := r.buildSystem(e, dma)
		if err != nil {
			return nil, err
		}
		repThe, err := coest.Estimate(ctx, sys, coest.WithWaveform(10*time.Microsecond))
		if err != nil {
			return nil, fmt.Errorf("paper: %s: %w", e.ID, err)
		}
		row := r.baseRow(e, "waveform", dma, rep)
		row.fill(repThe)
		at, peak := repThe.Waveform.Peak()
		row.PeakW = float64(peak)
		row.PeakAtNS = int64(at)
		rows = append(rows, row)

		if rep == 0 {
			path := filepath.Join(r.dir, "analysis", "waveform-"+e.ID+".csv")
			if err := writeWaveformCSV(path, repThe); err != nil {
				return nil, fmt.Errorf("paper: %s: %w", e.ID, err)
			}
		}
	}
	fmt.Fprintf(log, "%s (%s): power waveform peaks (%s, dma %d)\n", e.ID, e.Kind, e.system(), dma)
	t := report.NewTable("repeat", "peak power", "at", "total energy")
	for _, row := range rows {
		t.Row(row.Repeat, fmt.Sprintf("%.6g W", row.PeakW),
			time.Duration(row.PeakAtNS).String(), energyString(row.EnergyJ))
	}
	t.Render(log)
	return rows, nil
}
