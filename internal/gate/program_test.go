package gate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/units"
)

// twin is a Sim of a shared Program stepped in lockstep with a Sim of its
// own freshly compiled Program, under one random vector stream.
type twin struct {
	got, want *Sim
	rng       *rand.Rand
	in        InputVector
}

func newTwin(t *testing.T, shared *Program, vdd units.Voltage, seed int64) *twin {
	t.Helper()
	own, err := Compile(shared.n)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{
		got:  shared.NewSim(vdd),
		want: own.NewSim(vdd),
		rng:  rand.New(rand.NewSource(seed)),
		in:   make(InputVector, len(shared.n.Inputs)),
	}
	tw.got.Record(true)
	tw.want.Record(true)
	return tw
}

// step clocks both Sims through cycle i of the stream, forcing a flop now
// and then and resetting both every 97th cycle, and reports the first
// difference in energy, toggles or evaluations.
func (tw *twin) step(i, flop int) error {
	for j := range tw.in {
		tw.in[j] = tw.rng.Intn(2) == 1
	}
	switch {
	case i%97 == 96:
		tw.got.Reset()
		tw.want.Reset()
	case i%13 == 12:
		v := tw.rng.Intn(2) == 1
		tw.got.ForceFlop(flop, v)
		tw.want.ForceFlop(flop, v)
	}
	eg, ew := tw.got.Cycle(tw.in), tw.want.Cycle(tw.in)
	if math.Float64bits(float64(eg)) != math.Float64bits(float64(ew)) ||
		math.Float64bits(float64(tw.got.Energy())) != math.Float64bits(float64(tw.want.Energy())) ||
		tw.got.TotalToggles() != tw.want.TotalToggles() || tw.got.Evals() != tw.want.Evals() {
		return fmt.Errorf("cycle %d: energy %v (total %v) toggles %d evals %d, want %v (total %v) toggles %d evals %d",
			i, eg, tw.got.Energy(), tw.got.TotalToggles(), tw.got.Evals(),
			ew, tw.want.Energy(), tw.want.TotalToggles(), tw.want.Evals())
	}
	return nil
}

// TestProgramSharedBySims pins the Program/Sim split: two Sims of one
// Program, at different supply voltages and under different vector
// streams, each match a Sim of their own freshly compiled Program cycle by
// cycle — stepped interleaved on one goroutine, then concurrently from two
// (run under -race) — and the shared Program is left exactly as compiled.
func TestProgramSharedBySims(t *testing.T) {
	const cycles = 400
	n, flop := steadyNetlist()
	shared, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}

	a, b := newTwin(t, shared, 3.3, 1), newTwin(t, shared, 2.5, 2)
	for i := 0; i < cycles; i++ {
		for _, tw := range []*twin{a, b} {
			if err := tw.step(i, flop); err != nil {
				t.Fatalf("interleaved: %v", err)
			}
		}
	}
	sameSims(t, a.got, a.want)
	sameSims(t, b.got, b.want)

	twins := []*twin{newTwin(t, shared, 3.3, 3), newTwin(t, shared, 1.8, 4)}
	var wg sync.WaitGroup
	for _, tw := range twins {
		wg.Add(1)
		go func(tw *twin) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				if err := tw.step(i, flop); err != nil {
					t.Errorf("concurrent: %v", err)
					return
				}
			}
		}(tw)
	}
	wg.Wait()
	for _, tw := range twins {
		sameSims(t, tw.got, tw.want)
	}

	fresh, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatal("running Sims changed their shared Program")
	}
}
