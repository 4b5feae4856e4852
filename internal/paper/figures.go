package paper

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/iss"
	"repro/internal/macromodel"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/systems"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
)

// runSeparate runs the Fig 1(b) motivation: the prodcons system under
// separate estimation and under co-estimation. Each (estimation, machine)
// pair is one row, variant "separate/consumer" and so on, whose energy is
// the machine's compute energy; the run's simulated and wall time ride
// along.
func (r *Runner) runSeparate(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	modes := []struct {
		name string
		opts []coest.Option
	}{
		{"separate", []coest.Option{coest.WithSeparateEstimation()}},
		{"co-est", nil},
	}
	rows, err := r.repeatRows(e, func(rep int) ([]Row, error) {
		var out []Row
		for _, m := range modes {
			sys, err := r.buildSystem(e, 0)
			if err != nil {
				return nil, err
			}
			rp, err := coest.Estimate(ctx, sys, m.opts...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			for _, machine := range []string{"producer", "consumer"} {
				row := r.baseRow(e, m.name+"/"+machine, 0, rep)
				row.EnergyJ = rp.Machine(machine).ComputeEnergy.Joules()
				row.SimNS = int64(rp.SimulatedTime)
				row.WallNS = rp.Wall.Nanoseconds()
				out = append(out, row)
			}
		}
		return out, nil
	})
	if err != nil {
		return rows, err
	}
	// rows[0:4]: separate producer, consumer; co-est producer, consumer.
	fmt.Fprintf(log, "%s (%s): separate HW/SW estimation vs co-estimation (prodcons, %d packets)\n",
		e.ID, e.Kind, e.packets(r.Spec))
	t := report.NewTable("", "producer energy", "consumer energy")
	t.Row("separate", energyString(rows[0].EnergyJ), energyString(rows[1].EnergyJ))
	t.Row("co-est", energyString(rows[2].EnergyJ), energyString(rows[3].EnergyJ))
	t.Render(log)
	fmt.Fprintf(log, "  consumer under-estimated by %.0f%% (paper: ~62%%)\n", underPct(rows[1].EnergyJ, rows[3].EnergyJ))
	return rows, nil
}

// runCharacterize runs the Fig 3 flow once per repeat: every
// macro-operation is characterized on the ISS under the SPARClite timing and
// power models. Each operation is one row, variant its mnemonic, whose
// energy is its characterized energy. The first repeat's parameter file goes
// to the log and to analysis/<id>.params, the file coest -params reads. The
// kind ignores the system, packet and DMA settings.
func (r *Runner) runCharacterize(e Experiment, log io.Writer) ([]Row, error) {
	var params bytes.Buffer
	rows, err := r.repeatRows(e, func(rep int) ([]Row, error) {
		tbl, err := macromodel.Characterize(iss.SPARCliteTiming(), iss.SPARCliteModel())
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			if err := tbl.ToParamFile().Write(&params); err != nil {
				return nil, err
			}
		}
		out := make([]Row, 0, cfsm.NumOps)
		for _, op := range cfsm.AllOps() {
			row := r.baseRow(e, op.String(), 0, rep)
			row.EnergyJ = tbl.Energy[op].Joules()
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return rows, err
	}
	fmt.Fprintf(log, "%s (%s): parameter file of %d macro-operations on the SPARClite model\n",
		e.ID, e.Kind, cfsm.NumOps)
	fmt.Fprint(log, params.String())
	if err := os.WriteFile(filepath.Join(r.dir, "analysis", e.ID+".params"), params.Bytes(), 0o644); err != nil {
		return rows, fmt.Errorf("paper: %s: %w", e.ID, err)
	}
	return rows, nil
}

// underPct is how far a separate estimate falls below the co-estimate, in
// percent.
func underPct(separate, coest float64) float64 {
	if coest == 0 {
		return 0
	}
	return (1 - separate/coest) * 100
}

// runPathEnergy samples the energy of every real estimator invocation per
// execution path, on the data-dependent DSP power model, and logs the
// histograms of the tightest and the widest hot path: the Fig 4(b)
// intuition that the first can be cached and the second must keep being
// simulated. No packet is corrupted, so every spread comes from operand
// values.
func (r *Runner) runPathEnergy(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	dma := e.dmaSizes(r.Spec)[0]
	p := r.tcpipParams(e, dma)
	p.CorruptEvery = 0
	var samples map[ecache.Key][]float64
	rows, err := r.repeatRows(e, func(rep int) ([]Row, error) {
		rp, got, err := collectPathEnergy(ctx, coest.TCPIP(p))
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			samples = got
		}
		row := r.baseRow(e, "dsp", dma, rep)
		row.fill(rp)
		return []Row{row}, nil
	})
	if err != nil {
		return rows, err
	}
	lo, hi, err := spreadExtremes(samples)
	if err != nil {
		return nil, fmt.Errorf("paper: %s: %w", e.ID, err)
	}
	fmt.Fprintf(log, "%s (%s): per-path energy histograms, DSP power model (x: energy nJ, bars: occurrences)\n", e.ID, e.Kind)
	fmt.Fprintf(log, " low-variance path %x on machine %d (%d runs) - cacheable:\n", lo.key.Path, lo.key.Machine, len(lo.xs))
	fmt.Fprint(log, histogram(lo.xs).Render(40))
	fmt.Fprintf(log, " high-variance path %x on machine %d (%d runs) - keep simulating:\n", hi.key.Path, hi.key.Machine, len(hi.xs))
	fmt.Fprint(log, histogram(hi.xs).Render(40))
	return rows, nil
}

// collectPathEnergy estimates sys on the DSP power model and returns the
// report with every real estimator invocation's energy in nJ, per path.
func collectPathEnergy(ctx context.Context, sys *coest.System) (*coest.Report, map[ecache.Key][]float64, error) {
	samples := pathEnergySink{}
	rp, err := coest.Estimate(ctx, sys, coest.WithDSPModel(), coest.WithTraceSink(samples))
	return rp, samples, err
}

// pathEnergySink keeps the energy of every real estimator invocation — the
// run's KindISSCall and KindGateEval events — in nJ, per path. Shadow
// audits emit neither kind.
type pathEnergySink map[ecache.Key][]float64

func (s pathEnergySink) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindISSCall || ev.Kind == telemetry.KindGateEval {
		k := ecache.Key{Machine: ev.Machine, Path: cfsm.PathKey(ev.Path)}
		s[k] = append(s[k], ev.Energy.Nanojoules())
	}
}

func (pathEnergySink) Close() error { return nil }

// pathSamples is one execution path's energy samples and their
// coefficient of variation.
type pathSamples struct {
	key ecache.Key
	xs  []float64
	cv  float64
}

// spreadExtremes returns the hot paths (at least 4 samples) with the
// smallest and the largest coefficient of variation.
func spreadExtremes(samples map[ecache.Key][]float64) (lo, hi pathSamples, err error) {
	var hot []pathSamples
	for k, xs := range samples {
		if len(xs) < 4 {
			continue
		}
		var run stats.Running
		for _, x := range xs {
			run.Add(x)
		}
		hot = append(hot, pathSamples{key: k, xs: xs, cv: run.CoefVar()})
	}
	if len(hot) < 2 {
		return lo, hi, fmt.Errorf("%d hot paths, Fig 4 needs 2", len(hot))
	}
	sort.Slice(hot, func(i, j int) bool {
		a, b := hot[i], hot[j]
		if a.cv != b.cv {
			return a.cv < b.cv
		}
		if a.key.Machine != b.key.Machine {
			return a.key.Machine < b.key.Machine
		}
		return a.key.Path < b.key.Path
	})
	return hot[0], hot[len(hot)-1], nil
}

// histogram bins xs into 12 equal bins spanning their range plus 5% on
// each side.
func histogram(xs []float64) *stats.Histogram {
	lo, hi := slices.Min(xs), slices.Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	pad := 0.05 * (hi - lo)
	h := stats.NewHistogram(lo-pad, hi+pad, 12)
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// renderFig6Scatter plots the first repeat's accelerated energies against
// the base ones across the DMA axis: the Fig 6 figure. The analyzer adds
// its correlation and ranking line to tables.md.
func renderFig6Scatter(w io.Writer, rows []Row) {
	var xs, ys []float64
	var labels []string
	for i := 0; i+1 < len(rows); i += 2 {
		base, accel := rows[i], rows[i+1]
		if base.Repeat != 0 {
			continue
		}
		xs = append(xs, base.EnergyJ/1e-6)
		ys = append(ys, accel.EnergyJ/1e-6)
		labels = append(labels, strconv.Itoa(base.DMA))
	}
	fmt.Fprintln(w, "Fig 6: relative accuracy of macro-modeling vs DMA size")
	report.Scatter(w, xs, ys, labels, 60, 18)
	fmt.Fprintln(w, "  (energies in uJ; labels are DMA sizes)")
}

// runDSE explores every bus-master priority assignment × the DMA axis of
// the TCP/IP subsystem (Fig 7), one coest.Sweep per repeat. Each row's
// variant names its priority assignment. The log lists every point at the
// minimum: on the paper's grid the large-DMA points tie exactly.
func (r *Runner) runDSE(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	perms := []int{0, 1, 2, 3, 4, 5}
	dmas := e.dmaSizes(r.Spec)
	grid := coest.TCPIPGrid(r.tcpipParams(e, 0), perms, dmas)
	rows, err := r.sweepRows(ctx, e, grid, func(i int) (string, int) {
		return systems.PriorityPermName(perms[i/len(dmas)]), dmas[i%len(dmas)]
	})
	if err != nil {
		return rows, err
	}

	first := rows[:grid.N]
	fmt.Fprintf(log, "%s (%s): energy vs priority assignment and DMA size (tcpip, %d packets)\n",
		e.ID, e.Kind, e.packets(r.Spec))
	rowLabels := make([]string, len(perms))
	vals := make([][]float64, len(perms))
	for i, perm := range perms {
		rowLabels[i] = systems.PriorityPermName(perm)
		vals[i] = make([]float64, len(dmas))
		for j := range dmas {
			vals[i][j] = first[i*len(dmas)+j].EnergyJ / 1e-6
		}
	}
	colLabels := make([]string, len(dmas))
	for j, d := range dmas {
		colLabels[j] = fmt.Sprintf("dma%d", d)
	}
	report.Grid(log, rowLabels, colLabels, vals, "uJ")
	mins := minRows(first)
	fmt.Fprintf(log, "  minimum %s at %d point(s) (paper: Create_Pack>IP_Check>Checksum, DMA 128):\n",
		energyString(mins[0].EnergyJ), len(mins))
	for _, m := range mins {
		fmt.Fprintf(log, "    %s, dma %d\n", m.Variant, m.DMA)
	}
	return rows, nil
}

// minRows returns every row at the lowest energy, in order.
func minRows(rows []Row) []Row {
	es := make([]float64, len(rows))
	for i, row := range rows {
		es[i] = row.EnergyJ
	}
	var out []Row
	for _, i := range stats.ArgMins(es) {
		out = append(out, rows[i])
	}
	return out
}

// partitionMappings are the four HW/SW mappings of the prodcons producer
// and consumer; the timer stays in hardware.
var partitionMappings = [4][2]core.Mapping{
	{core.SW, core.SW}, {core.SW, core.HW}, {core.HW, core.SW}, {core.HW, core.HW},
}

// runPartition co-estimates every HW/SW mapping of the prodcons producer
// and consumer, one coest.Sweep per repeat: the coarse-grained exploration
// the paper's introduction motivates. Both processes use only
// synthesizable macro-operations, so either can map either way. Each row's
// variant names its mapping.
func (r *Runner) runPartition(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	grid := coest.Grid{N: len(partitionMappings), Build: func(i int) (*coest.System, error) {
		sys, err := r.buildSystem(e, 0)
		if err != nil {
			return nil, err
		}
		m := partitionMappings[i]
		sys.Spec().Procs["producer"] = coest.ProcessConfig{Mapping: m[0], Priority: 1}
		sys.Spec().Procs["consumer"] = coest.ProcessConfig{Mapping: m[1], Priority: 3}
		return sys, nil
	}}
	rows, err := r.sweepRows(ctx, e, grid, func(i int) (string, int) {
		m := partitionMappings[i]
		return fmt.Sprintf("producer=%v/consumer=%v", m[0], m[1]), 0
	})
	if err != nil {
		return rows, err
	}

	first := rows[:grid.N]
	fmt.Fprintf(log, "%s (%s): HW/SW partition exploration (prodcons, %d packets)\n", e.ID, e.Kind, e.packets(r.Spec))
	t := report.NewTable("partition", "total", "sw", "hw", "makespan")
	for _, row := range first {
		t.Row(row.Variant, energyString(row.EnergyJ), energyString(row.SWJ), energyString(row.HWJ),
			units.Time(row.SimNS).String())
	}
	t.Render(log)
	for _, m := range minRows(first) {
		fmt.Fprintf(log, "  best: %s at %s\n", m.Variant, energyString(m.EnergyJ))
	}
	return rows, nil
}

// runQuality is the estimation-quality study: a Table 1 caching run with
// the attribution ledger and a shadow audit of a quarter of the cached
// serves. The first repeat's ledger, error budget and audit record go to
// the log.
func (r *Runner) runQuality(ctx context.Context, e Experiment, log io.Writer) ([]Row, error) {
	dma := e.dmaSizes(r.Spec)[0]
	var first *coest.Report
	rows, err := r.repeatRows(e, func(rep int) ([]Row, error) {
		sys, err := r.buildSystem(e, dma)
		if err != nil {
			return nil, err
		}
		rp, err := coest.Estimate(ctx, sys, coest.WithEnergyCacheParams(ecacheParams),
			coest.WithAttribution(), coest.WithShadowAudit(qualityShadowRate))
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			first = rp
		}
		row := r.baseRow(e, "ecache", dma, rep)
		row.fill(rp)
		return []Row{row}, nil
	})
	if err != nil {
		return rows, err
	}
	fmt.Fprintf(log, "%s (%s): estimation quality (tcpip, %d packets, dma %d, ecache, shadow rate %.0f%%):\n\n",
		e.ID, e.Kind, e.packets(r.Spec), dma, qualityShadowRate*100)
	first.Attribution.Render(log)
	fmt.Fprintf(log, "\nledger reconciliation: %.4f%% off the run total (%v)\n\n",
		100*relDiff(rows[0].AttribTotalJ, rows[0].EnergyJ), first.Total)
	if first.Budget != nil {
		first.Budget.Render(log)
		fmt.Fprintln(log)
	}
	if first.Audit != nil {
		first.Audit.Render(log)
	}
	return rows, nil
}

// repeatRows runs one measurement per spec repeat and checks that every
// repeat reported the same energies.
func (r *Runner) repeatRows(e Experiment, run func(rep int) ([]Row, error)) ([]Row, error) {
	var rows []Row
	for rep := 0; rep < e.repeats(r.Spec); rep++ {
		got, err := run(rep)
		if err != nil {
			return nil, fmt.Errorf("paper: %s: %w", e.ID, err)
		}
		rows = append(rows, got...)
	}
	if err := checkRepeatDeterminism(rows); err != nil {
		return rows, fmt.Errorf("paper: %s: %w", e.ID, err)
	}
	return rows, nil
}

// sweepRows estimates the grid once per repeat through coest.Sweep, one row
// per point; label names each point's variant and DMA size.
func (r *Runner) sweepRows(ctx context.Context, e Experiment, grid coest.Grid, label func(i int) (variant string, dma int)) ([]Row, error) {
	return r.repeatRows(e, func(rep int) ([]Row, error) {
		results, err := coest.Sweep(ctx, grid)
		if err != nil {
			return nil, err
		}
		rows := make([]Row, len(results))
		for i, res := range results {
			variant, dma := label(res.Index)
			rows[i] = r.baseRow(e, variant, dma, rep)
			rows[i].fill(res.Report)
		}
		return rows, nil
	})
}
