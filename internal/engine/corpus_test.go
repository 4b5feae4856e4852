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
	"repro/internal/iss"
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

		srng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		for a := uint32(0); a < 256; a++ {
			sys.SharedInit[a] = cfsm.Value(srng.Intn(cfsmtest.Mask + 1))
		}
		for k := 0; k < 3+i; k++ {
			sys.Stimuli = append(sys.Stimuli, core.Stimulus{
				At:    units.Time(k+1) * 20 * units.Microsecond,
				Input: fmt.Sprintf("IN%d", srng.Intn(nm)),
				Value: cfsm.Value(srng.Intn(cfsmtest.Mask + 1)),
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

// diffPaths runs one grid three ways — cold compile per point on 1 worker,
// cold compile per point on 4 workers, and warm rebind of one CoSim's
// Artifacts on 4 workers — and requires the three report sets to be
// bit-identical: energies, cycle counts, ISS-call and gate-execution
// counts, attribution rollups and error budgets.
func diffPaths(t *testing.T, n int, build BuildFunc) {
	t.Helper()
	sys, cfg, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewShared(sys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		opts Options
	}{
		{"cold/1", Options{Workers: 1}},
		{"cold/4", Options{Workers: 4}},
		{"warm/4", Options{Workers: 4, Artifacts: cs.Artifacts()}},
	}
	var want []Result[*core.Report]
	for _, p := range paths {
		got, err := RunReports(context.Background(), n, p.opts, build)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: %d reports, want %d", p.name, len(got), n)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			w, g := scrub(want[i].Value), scrub(got[i].Value)
			if got[i].Index != want[i].Index {
				t.Fatalf("%s result %d: index %d, want %d", p.name, i, got[i].Index, want[i].Index)
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("%s point %d: report differs from %s:\n%v\nvs\n%v",
					p.name, i, paths[0].name, w.String(), g.String())
			}
			if w.ISSCalls != g.ISSCalls || w.GateExecs != g.GateExecs {
				t.Fatalf("%s point %d: estimator call counts differ", p.name, i)
			}
		}
	}
}

// TestCorpusRandomSoCs is the differential corpus: random SoCs (SW + 2 HW
// machines, shared memory, per-point stimuli, caching and shadow auditing
// on a rotating subset of points) must report identically on every
// execution path of the estimator.
func TestCorpusRandomSoCs(t *testing.T) {
	for seed := int64(200); seed < 203; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffPaths(t, 4, socBuild(seed, cfsmtest.DefaultParams(), nil))
		})
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
