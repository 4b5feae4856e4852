package main

import (
	"context"
	"fmt"
	"time"

	"repro/pkg/coest"
)

// The two design-space-exploration workloads share one shape: a fixed,
// seed-ordered list of estimation points, run as whole passes through one
// public pkg/coest entry point, every answer checked against the goldens
// (set-up) and against the set-up pass bit for bit (timed passes).

const dsePackets = 12

// dmaSizes is the DMA axis every workload uses: the Fig 7 columns.
var dmaSizes = []int{2, 4, 8, 16, 32, 64}

type dse struct {
	workload    string
	payloadSeed uint32
	names       []string // canonical point names
	order       []int    // seed-ordered permutation of canonical indices
	golden      []pointSig
	ref         []pointSig // set-up pass answers, canonical order

	// prepare builds, from scratch, what the passes run on and returns the
	// wall time of its compile step (0 when points compile inside the pass).
	prepare func() (compile time.Duration, err error)
	// estimate runs the points order[0..] once and returns their results
	// in that order.
	estimate func(ctx context.Context, order []int, opts ...coest.Option) ([]coest.PointResult, error)
}

func tcpipParams(payloadSeed uint32) coest.TCPIPParams {
	p := coest.DefaultTCPIPParams()
	p.Packets = dsePackets
	p.Seed = payloadSeed
	return p
}

// newFig7 is the paper's Fig 7 exploration as cmd/explore runs it: every
// bus-master priority permutation × DMA size, one cold co-estimation per
// point through coest.Sweep on the default backend.
func newFig7(seed int64) *dse {
	w := &dse{workload: "fig7-reference", payloadSeed: payloadSeedFor(seed)}
	perms := []int{0, 1, 2, 3, 4, 5}
	grid := coest.TCPIPGrid(tcpipParams(w.payloadSeed), perms, dmaSizes)
	for _, p := range perms {
		for _, d := range dmaSizes {
			w.names = append(w.names, fmt.Sprintf("perm%d/dma%d", p, d))
		}
	}
	w.prepare = func() (time.Duration, error) { return 0, nil }
	w.estimate = func(ctx context.Context, order []int, opts ...coest.Option) ([]coest.PointResult, error) {
		g := coest.Grid{N: len(order), Build: func(i int) (*coest.System, error) { return grid.Build(order[i]) }}
		return coest.Sweep(ctx, g, opts...)
	}
	w.order = seededOrder(seed, len(w.names))
	return w
}

// swPartitionSystem is the 12-packet tcpip with its checksum process moved
// from hardware to software — the paper's HW/SW partitioning axis.
func swPartitionSystem(payloadSeed uint32) *coest.System {
	sys := coest.TCPIP(tcpipParams(payloadSeed))
	pc := sys.Spec().Procs["checksum"]
	pc.Mapping = coest.SW
	sys.Spec().Procs["checksum"] = pc
	return sys
}

// swTechniques are the estimation techniques of sw-partition's points:
// the reference, sampling with bus-trace compaction (Table 3) and the
// software macro-model (Table 2).
var swTechniques = []struct {
	name string
	opts []coest.Option
}{
	{"reference", nil},
	{"sampling", []coest.Option{coest.WithSampling(), coest.WithBusCompaction(32, 4)}},
	{"macro", []coest.Option{coest.WithMacroModel()}},
}

func swPointOptions(i int) []coest.Option {
	t := swTechniques[i/len(dmaSizes)]
	return append([]coest.Option{coest.WithDMASize(dmaSizes[i%len(dmaSizes)])}, t.opts...)
}

// newSWPartition compiles the all-software tcpip once per set-up and
// estimates its points with Session.EstimateBatch.
func newSWPartition(seed int64) *dse {
	w := &dse{workload: "sw-partition", payloadSeed: payloadSeedFor(seed)}
	for _, t := range swTechniques {
		for _, d := range dmaSizes {
			w.names = append(w.names, fmt.Sprintf("%s/dma%d", t.name, d))
		}
	}
	var sess *coest.Session
	w.prepare = func() (time.Duration, error) {
		start := time.Now()
		s, err := coest.NewSession(swPartitionSystem(w.payloadSeed))
		if err != nil {
			return 0, fmt.Errorf("sw-partition: compile: %w", err)
		}
		sess = s
		return time.Since(start), nil
	}
	w.estimate = func(ctx context.Context, order []int, opts ...coest.Option) ([]coest.PointResult, error) {
		points := make([][]coest.Option, len(order))
		for i, ci := range order {
			points[i] = swPointOptions(ci)
		}
		return sess.EstimateBatch(ctx, points, opts...)
	}
	w.order = seededOrder(seed, len(w.names))
	return w
}

// payloadSeedFor maps a benchmark seed onto a payload seed with goldens.
func payloadSeedFor(seed int64) uint32 {
	return goldenSeeds[uint64(seed)%uint64(len(goldenSeeds))]
}

func (w *dse) loadGolden() (err error) {
	w.golden, err = loadDSEGolden(w.workload, w.payloadSeed, dsePackets, w.names)
	return err
}

func (w *dse) name() string { return w.workload }

// setUp prepares from scratch and runs the first pass, which must match
// the goldens exactly; its answers become the reference the timed passes
// must reproduce.
func (w *dse) setUp(ctx context.Context, rc *runCounts) (setupResult, error) {
	start := time.Now()
	compile, err := w.prepare()
	if err != nil {
		return setupResult{}, err
	}
	got, _, err := w.runOnce(ctx)
	if err != nil {
		return setupResult{}, err
	}
	wall := time.Since(start)
	rc.attempted += len(w.names)
	w.ref = got
	if bad := checkPoints(got, w.golden); len(bad) > 0 {
		// Timed passes are then held to the goldens too, so they fail.
		rc.failed += len(bad)
		rc.note(fmt.Errorf("%s: %d of %d points differ from the goldens (first: %s)",
			w.workload, len(bad), len(w.names), w.names[bad[0]]))
		w.ref = w.golden
	}
	return setupResult{wall: wall, compile: compile}, nil
}

// runOnce runs one pass and returns its answers in canonical order plus
// the per-point latencies (ms) the engine reports.
func (w *dse) runOnce(ctx context.Context) ([]pointSig, []float64, error) {
	lat := make([]float64, 0, len(w.order))
	res, err := w.estimate(ctx, w.order,
		coest.WithWorkers(workers),
		coest.WithProgress(func(m coest.PointMetrics) {
			lat = append(lat, float64(m.Wall)/float64(time.Millisecond))
		}))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.workload, err)
	}
	got := make([]pointSig, len(w.names))
	for _, r := range res {
		ci := w.order[r.Index]
		if r.Err != nil {
			return nil, nil, fmt.Errorf("%s: point %s: %w", w.workload, w.names[ci], r.Err)
		}
		got[ci] = sigOf(w.names[ci], r.Report)
	}
	return got, lat, nil
}

// pass runs one timed pass; a point that differs from the set-up pass
// counts as failed.
func (w *dse) pass(ctx context.Context, ph *phase) error {
	got, lat, err := w.runOnce(ctx)
	ph.attempted += len(w.names)
	if err != nil {
		ph.failed += len(w.names)
		ph.note(err)
		return nil
	}
	bad := checkPoints(got, w.ref)
	if len(bad) > 0 {
		ph.note(fmt.Errorf("%s: %d points differ from the set-up pass (first: %s)",
			w.workload, len(bad), w.names[bad[0]]))
	}
	ph.failed += len(bad)
	ph.points += len(w.names) - len(bad)
	ph.lat = append(ph.lat, lat...)
	return nil
}

// layers reports the simulated statistics of the verified answers, which
// every timed pass reproduced exactly.
func (w *dse) layers(out map[string]float64, _ *runPhases) {
	var icache, simNS, energy float64
	for _, p := range w.ref {
		icache += float64(p.ICacheAccesses)
		simNS += float64(p.SimulatedNS)
		energy += p.TotalJ
	}
	n := float64(len(w.ref))
	out["icache.accesses_per_point"] = icache / n
	out["sim.simulated_us_per_point"] = simNS / 1e3 / n
	out["energy.uj_per_point"] = energy * 1e6 / n
}

func (w *dse) close(context.Context) error { return nil }

// referenceGolden computes a DSE workload's goldens on the reference path:
// one cold coest.Estimate per point, serially.
func (w *dse) referenceGolden(ctx context.Context) (dseGolden, error) {
	g := dseGolden{Workload: w.workload, PayloadSeed: w.payloadSeed, Packets: dsePackets}
	for i, name := range w.names {
		var sys *coest.System
		var opts []coest.Option
		switch w.workload {
		case "fig7-reference":
			p := tcpipParams(w.payloadSeed)
			p.PriorityPerm = i / len(dmaSizes)
			p.DMASize = dmaSizes[i%len(dmaSizes)]
			sys = coest.TCPIP(p)
		default:
			sys = swPartitionSystem(w.payloadSeed)
			opts = swPointOptions(i)
		}
		rep, err := coest.Estimate(ctx, sys, opts...)
		if err != nil {
			return g, fmt.Errorf("%s: %s: %w", w.workload, name, err)
		}
		g.Points = append(g.Points, sigOf(name, rep))
	}
	return g, nil
}
