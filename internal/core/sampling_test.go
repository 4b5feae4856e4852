package core

import (
	"math"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/units"
)

// TestSamplingSettlesInSortedOrder pins the run-end settle of sampled
// reactions to (machine, path) order. One machine has four paths with
// skipped reactions pending, whose energies sum to different totals in
// different orders; every one of 20 runs must report the sorted-order
// total bit for bit, whatever order the map of sampled paths yields.
func TestSamplingSettlesInSortedOrder(t *testing.T) {
	b := cfsm.NewBuilder("m")
	s0 := b.State("run")
	in := b.Input("GO")
	b.On(s0, in).Do(cfsm.Emit(b.Output("DONE"), cfsm.Const(1)))
	net := cfsm.NewNet()
	net.Add(b.MustBuild())
	net.EnvInputByName("GO", "m", "GO")
	sys := &System{Name: "settle", Net: net, Procs: map[string]ProcessConfig{"m": {Mapping: SW}}}
	cfg := DefaultConfig()
	cfg.Accel.Sampling = true
	cfg.Accel.SamplingParams = DefaultSampling()

	pending := []struct {
		path cfsm.PathKey
		e    float64
	}{{1, 1e-16}, {2, 1}, {3, 1e-16}, {4, 3e-16}}
	var want, reversed units.Energy
	for i := range pending {
		want += units.Energy(pending[i].e)
		reversed += units.Energy(pending[len(pending)-1-i].e)
	}
	if math.Float64bits(float64(want)) == math.Float64bits(float64(reversed)) {
		t.Fatal("the pending energies sum alike in both orders; the test shows nothing")
	}

	for run := 0; run < 20; run++ {
		cs, err := New(sys.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pending {
			st := &sampleState{sinceSample: 1}
			st.energy.Add(p.e)
			cs.samples[ecache.Key{Machine: 0, Path: p.path}] = st
		}
		rep, err := cs.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Machines[0].ComputeEnergy; math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("run %d: settled %.17g J, want the sorted-order total %.17g J", run, float64(got), float64(want))
		}
	}
}
