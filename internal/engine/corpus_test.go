package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/cfsm"
	"repro/internal/cfsmtest"
	"repro/internal/core"
	"repro/internal/hwsyn"
	"repro/internal/iss"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// socBuild returns a sweep build function over a random SoC: machine
// structure is fully determined by seed, stimuli and acceleration config
// vary per point, machine 0 maps to software, the rest to hardware. gp
// selects the generation shape — cfsmtest.BranchyParams() produces
// CTI-dense software images.
func socBuild(seed int64, gp cfsmtest.Params, mutate func(i int, cfg *core.Config)) BuildFunc {
	return func(i int) (*core.System, core.Config, error) {
		const nm = 3
		mrng := rand.New(rand.NewSource(seed))
		net := cfsm.NewNet()
		procs := make(map[string]core.ProcessConfig, nm)
		for mi := 0; mi < nm; mi++ {
			name := fmt.Sprintf("m%d", mi)
			m := cfsmtest.Machine(name, gp, mrng)
			net.Add(m)
			net.EnvInputByName(fmt.Sprintf("IN%d", mi), name, "IN")
			net.EnvOutput(fmt.Sprintf("OUT%d", mi), net.MachineIndex(name), m.OutputIndex("OUT"))
			mapping := core.HW
			if mi == 0 {
				mapping = core.SW
			}
			procs[name] = core.ProcessConfig{Mapping: mapping, Priority: mi + 1}
		}
		sys := &core.System{
			Name:       fmt.Sprintf("soc%d", seed),
			Net:        net,
			Procs:      procs,
			SharedInit: map[uint32]cfsm.Value{},
		}

		// Points 2k and 2k+1 share a stimulus stream (point 2k+1 takes one
		// event more) over memories of their own, so hardware reactions
		// repeat across points with other data to read.
		mem := rand.New(rand.NewSource(seed*1000 + int64(i)))
		for a := uint32(0); a < 256; a++ {
			sys.SharedInit[a] = cfsm.Value(mem.Intn(cfsmtest.Mask + 1))
		}
		stim := rand.New(rand.NewSource(seed*1000 + 500 + int64(i/2)))
		for k := 0; k < 3+i; k++ {
			sys.Stimuli = append(sys.Stimuli, core.Stimulus{
				At:    units.Time(k+1) * 20 * units.Microsecond,
				Input: fmt.Sprintf("IN%d", stim.Intn(nm)),
				Value: cfsm.Value(stim.Intn(cfsmtest.Mask + 1)),
			})
		}

		cfg := core.DefaultConfig()
		cfg.Attribution = true
		if i%2 == 0 {
			cfg.Accel.ECache = true
			cfg.Accel.ECacheParams.ThreshCalls = 2
			cfg.Accel.ECacheParams.ThreshVariance = 0.02
		}
		if i%3 == 0 && i%2 == 0 {
			cfg.ShadowAudit = audit.DefaultParams(0.5)
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		return sys, cfg, nil
	}
}

// scrub zeroes the fields that legitimately differ between runs (wall time).
func scrub(rep *core.Report) core.Report {
	r := *rep
	r.Wall = 0
	return r
}

// Replay counters (hwsyn): executions that started from a recorded course,
// and those of them that left it.
var (
	replays   = telemetry.Default.Counter("coest_hw_replays_total", "")
	fallbacks = telemetry.Default.Counter("coest_hw_replay_fallbacks_total", "")
)

// diffPaths runs one grid on every execution path and requires every
// report set to be bit-identical to a reference of one core.New per point,
// run serially: energies, cycle counts, ISS-call and gate-execution
// counts, attribution rollups and error budgets. The paths are the
// sweep's per-design compile on 1 and 4 workers, a session's warm rebind
// of one compile on 4 workers, and a Sweep-shaped replay: one compile and
// one replay table for the design, 4 workers, two passes. It returns the
// replays and fallbacks the replay passes counted.
func diffPaths(t *testing.T, n int, build BuildFunc) (nReplays, nFallbacks uint64) {
	t.Helper()
	var want []*core.Report
	for i := 0; i < n; i++ {
		sys, cfg, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := core.New(sys.Clone(), cfg.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cs.Run()
		if err != nil {
			t.Fatalf("reference point %d: %v", i, err)
		}
		want = append(want, rep)
	}
	compile := func() *core.Artifacts {
		sys, cfg, err := build(0)
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.Compile(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	replayed := compile()
	replayed.Replay = hwsyn.NewReplay(replayBytes)
	paths := []struct {
		name string
		opts Options
	}{
		{"sweep/1", Options{Workers: 1}},
		{"sweep/4", Options{Workers: 4}},
		{"warm/4", Options{Workers: 4, Artifacts: compile()}},
		{"replay/4 pass 1", Options{Workers: 4, Artifacts: replayed}},
		{"replay/4 pass 2", Options{Workers: 4, Artifacts: replayed}},
	}
	r0, f0 := replays.Value(), fallbacks.Value()
	for _, p := range paths {
		got, err := RunReports(context.Background(), n, p.opts, build)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: %d reports, want %d", p.name, len(got), n)
		}
		for i := range want {
			w, g := scrub(want[i]), scrub(got[i].Value)
			if got[i].Index != i {
				t.Fatalf("%s result %d: index %d, want %d", p.name, i, got[i].Index, i)
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("%s point %d: report differs from the reference:\n%v\nvs\n%v",
					p.name, i, w.String(), g.String())
			}
			if w.ISSCalls != g.ISSCalls || w.GateExecs != g.GateExecs {
				t.Fatalf("%s point %d: estimator call counts differ", p.name, i)
			}
		}
	}
	return replays.Value() - r0, fallbacks.Value() - f0
}

// TestCorpusRandomSoCs is the differential corpus: random SoCs (SW + 2 HW
// machines, shared memory, per-point stimuli, caching, shadow auditing and
// reaction sampling on a rotating subset of points) must report
// identically on every execution path of the estimator.
func TestCorpusRandomSoCs(t *testing.T) {
	sample := func(i int, cfg *core.Config) {
		if i%2 == 1 {
			cfg.Accel.Sampling = true
			cfg.Accel.SamplingParams = core.SamplingParams{Warmup: 1, Ratio: 2}
		}
	}
	var nReplays, nFallbacks uint64
	for seed := int64(200); seed < 203; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r, f := diffPaths(t, 4, socBuild(seed, cfsmtest.DefaultParams(), sample))
			nReplays += r
			nFallbacks += f
		})
	}
	// The corpus's per-point shared memory makes reads differ between
	// points, so replays both stay on their course and leave it.
	t.Logf("%d replays, %d fallbacks", nReplays, nFallbacks)
	if nReplays == 0 || nFallbacks == 0 || nFallbacks == nReplays {
		t.Fatalf("%d replays, %d fallbacks: want replays that stay and replays that fall back", nReplays, nFallbacks)
	}
}

// TestCorpusBranchyShapes runs the CTI-dense generation shape: images whose
// branches land in the middle of straight-line runs and chain CTIs back to
// back.
func TestCorpusBranchyShapes(t *testing.T) {
	for seed := int64(900); seed < 903; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffPaths(t, 3, socBuild(seed, cfsmtest.BranchyParams(), nil))
		})
	}
}

// TestCorpusWindowTrapShapes shrinks the register file to two windows, so
// the synthesized images' SAVE/RESTORE chains overflow and underflow
// constantly.
func TestCorpusWindowTrapShapes(t *testing.T) {
	shrink := func(i int, cfg *core.Config) {
		timing := *iss.SPARCliteTiming()
		timing.Windows = 2
		cfg.Timing = &timing
	}
	diffPaths(t, 3, socBuild(950, cfsmtest.BranchyParams(), shrink))
}
