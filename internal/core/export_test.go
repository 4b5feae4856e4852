package core

import "repro/internal/cfsm"

// Drive runs the simulation until it is quiet, as RunContext does, but
// leaves the run open: no report is built and the run keeps its ISS memory
// and I-cache, so a test can go on driving it.
func (cs *CoSim) Drive() error {
	cs.scheduleStimuli()
	cs.kernel.Run()
	return cs.err
}

// PostAndDrive posts v on input port of machine mi, activates the machine
// and runs the simulation until it is quiet again: the machine's reaction
// and everything it sets off.
func (cs *CoSim) PostAndDrive(mi, port int, v cfsm.Value) error {
	cs.sys.Net.Machines[mi].Post(port, v)
	cs.activate(mi)
	cs.kernel.Run()
	return cs.err
}

// SWCounters returns the run's ISS calls, I-cache accesses and bus grants
// so far.
func (cs *CoSim) SWCounters() (issCalls, icacheAccesses, busGrants uint64) {
	return cs.issCalls, cs.icache.Stats().Accesses, cs.bus.Stats().Grants
}
