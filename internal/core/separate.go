package core

import (
	"repro/internal/bus"
	"repro/internal/sim"
)

// separateEstimate implements the §2 baseline: the (already finished)
// timing-independent behavioral simulation captured every component's
// reaction trace; now each component's power estimator runs in isolation
// over its own trace. Timing interactions — shared-processor serialization
// time, bus contention, timer/computation interleaving — are absent, which
// is exactly the error source the paper demonstrates.
func (cs *CoSim) separateEstimate() error {
	// Per-component estimation, in recorded order (the order keeps each
	// machine's register/variable state consistent with its own trace).
	for _, rec := range cs.trace {
		mi := rec.machine
		if cs.procs[mi].Mapping == SW {
			cycles, energy := cs.runISS(mi, rec.r, rec.preVars)
			if cs.icache != nil {
				missCycles, ce, err := cs.feedICache(mi, rec.r)
				if err != nil {
					return err
				}
				cycles += missCycles
				cs.cacheEnergy += ce
			}
			cs.machineCycles[mi] += cycles
			cs.machineEnergy[mi] += energy
			cs.transEnergy[mi][rec.r.TransIdx] += energy
			cs.transCount[mi][rec.r.TransIdx]++
			continue
		}
		ex := cs.hw[mi]
		st, err := ex.driver.ExecTransition(rec.r, nil)
		if err != nil {
			return err
		}
		cs.gateExecs++
		cs.machineEstCalls[mi]++
		cs.machineCycles[mi] += st.Cycles
		cs.machineEnergy[mi] += st.Energy
		cs.transEnergy[mi][rec.r.TransIdx] += st.Energy
		cs.transCount[mi][rec.r.TransIdx]++
	}
	if cs.err != nil {
		return cs.err
	}

	// Bus estimation from per-component traces in isolation: each master's
	// transactions replay on a private, contention-free bus instance.
	perMaster := map[int][]busGroup{}
	var order []int
	for _, rec := range cs.trace {
		var b machineBufs // the groups outlive this iteration
		gs := b.groupMemOps(rec.r.MemOps)
		if len(gs) == 0 {
			continue
		}
		if _, seen := perMaster[rec.machine]; !seen {
			order = append(order, rec.machine)
		}
		perMaster[rec.machine] = append(perMaster[rec.machine], gs...)
	}
	for _, mi := range order {
		k := sim.NewKernel()
		b, err := bus.New(k, cs.cfg.Bus)
		if err != nil {
			return err
		}
		for _, g := range perMaster[mi] {
			b.Submit(&bus.Request{Master: mi, Addr: g.addr * 4, Data: g.data, Write: g.write})
		}
		k.Run()
		st := b.Stats()
		cs.sepBusEnergy += st.Energy
		cs.sepBusStats.Transactions += st.Transactions
		cs.sepBusStats.Grants += st.Grants
		cs.sepBusStats.Words += st.Words
		cs.sepBusStats.BusyCycles += st.BusyCycles
		cs.sepBusStats.AddrToggles += st.AddrToggles
		cs.sepBusStats.DataToggles += st.DataToggles
		cs.sepBusStats.CtrlToggles += st.CtrlToggles
		cs.sepBusStats.Energy += st.Energy
	}
	return nil
}
