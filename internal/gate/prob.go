package gate

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// The paper (§3) notes the framework also accepts hardware power estimation
// techniques "that use aggregate signal statistics (e.g. probabilistic or
// statistical power estimation techniques)" when per-cycle detail is not
// required. This file implements the classic probabilistic estimator:
// static signal probabilities and transition densities are propagated
// through the netlist under a spatial-independence assumption, and average
// power follows from the per-net densities — no vectors, no simulation.

// ProbInput characterizes one primary input: the probability of observing a
// logic 1 and the expected transitions per clock cycle.
type ProbInput struct {
	P1      float64 // P(net = 1), in [0,1]
	Density float64 // expected toggles per cycle, in [0,2]
}

// UniformInputs returns the conventional default: equiprobable inputs
// toggling with density 0.5.
func UniformInputs(n int) []ProbInput {
	in := make([]ProbInput, n)
	for i := range in {
		in[i] = ProbInput{P1: 0.5, Density: 0.5}
	}
	return in
}

// ProbEstimate is the result of a probabilistic analysis.
type ProbEstimate struct {
	// P1 and Density per net.
	P1      []float64
	Density []float64
	// EnergyPerCycle is the expected switching energy per clock cycle
	// (including the flop clock pins).
	EnergyPerCycle units.Energy
	// Iterations is the number of fixpoint sweeps used for the sequential
	// (flip-flop) probabilities.
	Iterations int
}

// Power returns the average power at the given clock.
func (p *ProbEstimate) Power(clock units.Frequency) units.Power {
	return units.Power(float64(p.EnergyPerCycle) * float64(clock))
}

// EstimateProbabilistic propagates signal statistics through the netlist and
// returns the average-power estimate. Sequential feedback (flip-flops) is
// resolved by fixpoint iteration. The estimator uses the same capacitance
// model as the simulator, so its numbers are directly comparable with
// Sim.Energy()/cycles.
func EstimateProbabilistic(n *Netlist, vdd units.Voltage, inputs []ProbInput) (*ProbEstimate, error) {
	if len(inputs) != len(n.Inputs) {
		return nil, fmt.Errorf("gate: %d input stats for %d inputs", len(inputs), len(n.Inputs))
	}
	// Reuse the simulator's levelization and capacitance model.
	prog, err := Compile(n)
	if err != nil {
		return nil, err
	}

	p1 := make([]float64, n.NumNets())
	den := make([]float64, n.NumNets())
	for i, id := range n.Inputs {
		p1[id] = clamp01(inputs[i].P1)
		den[id] = math.Max(0, inputs[i].Density)
	}
	// Initial flop guesses.
	for _, ff := range n.DFFs {
		p1[ff.Q] = 0.5
		den[ff.Q] = 0.5
	}

	sweep := func() {
		for _, gi := range prog.order {
			g := n.Gates[gi]
			gp, gd := gateStats(g, p1, den)
			p1[g.Out] = gp
			den[g.Out] = gd
		}
	}

	// Fixpoint over the sequential state.
	const maxIter = 200
	iter := 0
	for ; iter < maxIter; iter++ {
		sweep()
		delta := 0.0
		for _, ff := range n.DFFs {
			// Q takes D's probability; its toggle rate is the probability
			// that two consecutive samples differ (temporal independence).
			newP := p1[ff.D]
			newD := 2 * newP * (1 - newP)
			delta = math.Max(delta, math.Abs(newP-p1[ff.Q]))
			delta = math.Max(delta, math.Abs(newD-den[ff.Q]))
			p1[ff.Q] = newP
			den[ff.Q] = newD
		}
		if delta < 1e-9 {
			break
		}
	}
	sweep() // final combinational pass with converged state

	var e float64
	for net := 0; net < n.NumNets(); net++ {
		e += den[net] * float64(units.SwitchEnergy(prog.cap_[net], vdd, 1))
	}
	e += float64(units.SwitchEnergy(DefaultClockCap, vdd, uint64(len(n.DFFs))))

	return &ProbEstimate{
		P1:             p1,
		Density:        den,
		EnergyPerCycle: units.Energy(e),
		Iterations:     iter + 1,
	}, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// gateStats propagates probability and density through one gate under
// spatial independence. Densities use the boolean-difference formulation:
// an input transition propagates when the other inputs sensitize the gate.
func gateStats(g Gate, p1, den []float64) (float64, float64) {
	switch g.Kind {
	case And, Nand:
		p := 1.0
		for _, in := range g.Ins {
			p *= p1[in]
		}
		d := 0.0
		for _, in := range g.Ins {
			sens := 1.0
			for _, o := range g.Ins {
				if o != in {
					sens *= p1[o]
				}
			}
			d += den[in] * sens
		}
		if g.Kind == Nand {
			return 1 - p, d
		}
		return p, d

	case Or, Nor:
		q := 1.0
		for _, in := range g.Ins {
			q *= 1 - p1[in]
		}
		d := 0.0
		for _, in := range g.Ins {
			sens := 1.0
			for _, o := range g.Ins {
				if o != in {
					sens *= 1 - p1[o]
				}
			}
			d += den[in] * sens
		}
		if g.Kind == Nor {
			return q, d
		}
		return 1 - q, d

	case Xor, Xnor:
		// P(odd number of ones); every input is always sensitized.
		p := 0.0
		for _, in := range g.Ins {
			p = p*(1-p1[in]) + (1-p)*p1[in]
		}
		d := 0.0
		for _, in := range g.Ins {
			d += den[in]
		}
		if d > 2 {
			d = 2 // a net cannot toggle more than twice per cycle on average
		}
		if g.Kind == Xnor {
			return 1 - p, d
		}
		return p, d

	case Not:
		return 1 - p1[g.Ins[0]], den[g.Ins[0]]

	case Buf:
		return p1[g.Ins[0]], den[g.Ins[0]]
	}

	// 0-input constant gates (const0 as an empty OR).
	if len(g.Ins) == 0 {
		return 0, 0
	}
	return 0.5, 0.5
}
