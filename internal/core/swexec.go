package core

import (
	"cmp"
	"slices"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/rtos"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// activateSW routes a software machine's pending events through the RTOS:
// the behavioral reaction executes at dispatch time (so shared-processor
// serialization is honored), the estimator stack produces its cost, the CPU
// is held through the reaction's bus transfers (programmed I/O), and the
// emissions are delivered when the transfers complete.
func (cs *CoSim) activateSW(mi int) {
	j := reuse(&cs.freeJobs)
	if j == nil {
		j = new(swJob)
		j.job = rtos.Job{Hold: true, Service: j.service, Done: j.done}
	}
	*j = swJob{cs: cs, mi: mi, job: j.job}
	j.job.ID, j.job.Priority = mi, cs.procs[mi].Priority
	cs.sched.Post(&j.job)
}

// swJob is one activation of a software machine on its way through the
// RTOS: the job and the bookkeeping of the reaction it dispatches. Its
// callbacks are bound once, when the record is made, and the record goes
// back to CoSim.freeJobs when the reaction completes (or its dispatch finds
// nothing to fire), so a warm run recycles jobs instead of allocating them.
type swJob struct {
	cs      *CoSim
	mi      int
	job     rtos.Job
	r       *cfsm.Reaction // the dispatched reaction; nil if none fired
	busLeft int            // outstanding bus transfers of the reaction
	cpuDone bool
	cpuEnd  units.Time
}

// service runs at dispatch: the behavioral reaction, its cost, the I-cache
// feed and the issue of its bus transfers. It returns the CPU phase.
func (j *swJob) service() units.Time {
	cs, mi := j.cs, j.mi
	m := cs.sys.Net.Machines[mi]
	j.r = nil
	if m.Enabled() < 0 {
		return 0 // events were consumed by an earlier dispatch
	}
	b := &cs.bufs[mi]
	b.preVars = m.AppendVars(b.preVars[:0])
	r, ok := m.React(cs.shared)
	if !ok {
		return 0
	}
	j.r = r
	cs.machineReact[mi]++
	mReactions.Inc()
	if m.Enabled() >= 0 {
		// Other pending events can fire further transitions.
		cs.activateSW(mi)
	}

	if cs.cfg.Mode == Separate {
		cs.emitReaction(mi, r, 0, 0, 0)
		cs.record(mi, r, b.preVars)
		return 0
	}

	cycles, energy, src := cs.estimateSW(mi, r, b.preVars)
	cs.book(mi, src, r.Path, energy)
	cs.transEnergy[mi][r.TransIdx] += energy
	cs.transCount[mi][r.TransIdx]++

	// Fast instruction-cache simulation, fed by the master from the
	// statically reconstructed path trace (never from the ISS).
	if cs.icache != nil {
		missCycles, ce, err := cs.feedICache(mi, r)
		if err != nil {
			cs.fail(err)
			return 0
		}
		cycles += missCycles
		cs.book(mi, srcICache, r.Path, ce)
	}
	cs.machineCycles[mi] += cycles

	// Issue the reaction's bus transfers now: loads and stores
	// interleave with the computation, so they contend with other
	// masters in real time. The reaction completes when both the
	// CPU phase and the last transfer finish.
	cpuDur := units.Time(cycles) * cs.cfg.Timing.Clock.Period()
	cs.emitReaction(mi, r, cycles, energy, cpuDur)
	groups := b.groupMemOps(r.MemOps)
	j.busLeft = len(groups)
	for _, g := range groups {
		q := reuse(&cs.freeReqs)
		if q == nil {
			q = new(swBusReq)
			q.Done = q.done
		}
		q.job = j
		q.Master, q.Addr, q.Data, q.Write = mi, g.addr*4, g.data, g.write
		cs.bus.Submit(&q.Request)
	}
	return cpuDur
}

// done ends the CPU phase; the reaction completes once its transfers have
// too.
func (j *swJob) done() {
	cs := j.cs
	if j.r == nil {
		cs.freeJobs = append(cs.freeJobs, j)
		cs.sched.Release()
		return
	}
	j.cpuDone = true
	j.cpuEnd = cs.kernel.Now()
	if j.busLeft == 0 {
		j.finish()
	}
}

// finish completes the reaction: the CPU's stall on its outstanding
// transfers, the delivery of its emissions and the processor's release.
func (j *swJob) finish() {
	cs, mi, r := j.cs, j.mi, j.r
	if wait := cs.kernel.Now() - j.cpuEnd; wait > 0 {
		// The CPU stalls on its outstanding transfers.
		cs.book(mi, srcWait, 0, units.Energy(float64(cs.cfg.CPUIdle)*wait.Seconds()))
	}
	cs.deliver(mi, r)
	cs.freeJobs = append(cs.freeJobs, j)
	cs.sched.Release()
}

// reuse pops a record off a free list, or returns nil when it is empty.
func reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	t := (*free)[n-1]
	*free = (*free)[:n-1]
	return t
}

// swBusReq is one bus transfer of a software reaction, recycled through
// CoSim.freeReqs; its Done is bound once, when the record is made.
type swBusReq struct {
	bus.Request
	job *swJob
}

func (q *swBusReq) done() {
	j := q.job
	q.job, q.Data = nil, nil
	j.cs.freeReqs = append(j.cs.freeReqs, q)
	j.busLeft--
	if j.busLeft == 0 && j.cpuDone {
		j.finish()
	}
}

// feedICache runs reaction r's instruction fetches through the I-cache
// simulator and returns the miss cycles and the energy they cost. The
// fetch trace is rebuilt in the run's buffer.
func (cs *CoSim) feedICache(mi int, r *cfsm.Reaction) (uint64, units.Energy, error) {
	before := cs.icache.Stats()
	mc := cs.image.Machines[cs.swIdx[mi]]
	var err error
	cs.fetch, err = mc.FetchTrace(cs.fetch[:0], r)
	if err != nil {
		return 0, 0, err
	}
	for _, rg := range cs.fetch {
		cs.icache.AccessRange(rg.Start, rg.End)
	}
	d := cs.icache.Stats()
	return d.Cycles - before.Cycles, d.Energy - before.Energy, nil
}

// estimateSW is the software estimator stack of Fig 2(b): energy cache, then
// macro-model or sampling, then the ISS itself. The returned source names
// the technique that produced the cost.
func (cs *CoSim) estimateSW(mi int, r *cfsm.Reaction, preVars []cfsm.Value) (uint64, units.Energy, source) {
	key := ecache.Key{Machine: mi, Path: r.Path}

	if cs.cfg.Accel.Macromodel {
		cycles, energy := cs.cfg.Accel.MacromodelTable.CostOfReaction(r)
		cs.swSync[mi] = true // the ISS image is not being updated
		if cs.audit.Should() {
			cs.shadowSW(audit.TechMacro, nil, key, r, preVars, energy)
		}
		return cycles, energy, srcMacro
	}

	if cs.swCache != nil {
		e, cyc, ok := cs.swCache.Lookup(key)
		cs.emitECache(mi, r, ok)
		if ok {
			cs.swSync[mi] = true
			if cs.audit.Should() {
				cs.shadowSW(audit.TechECacheSW, cs.swCache, key, r, preVars, e)
			}
			return cyc, e, srcECache
		}
	}

	if cs.cfg.Accel.Sampling {
		st := cs.samples[key]
		if st == nil {
			st = &sampleState{}
			cs.samples[key] = st
		}
		st.seen++
		if st.seen > cs.cfg.Accel.SamplingParams.Warmup {
			st.sinceSample++
			if st.sinceSample < cs.cfg.Accel.SamplingParams.Ratio {
				// Skip the ISS: delay from the path's running mean; energy
				// is covered by the next sample's scale factor.
				cs.swSync[mi] = true
				st.skipped++
				return uint64(st.cycles.Mean() + 0.5), 0, srcSampling
			}
		}
		cyc, e := cs.runISS(mi, r, preVars)
		st.cycles.Add(float64(cyc))
		st.energy.Add(float64(e))
		scale := uint64(1)
		if st.sinceSample > 0 {
			scale = st.sinceSample
			st.sinceSample = 0
		}
		if cs.swCache != nil {
			cs.swCache.Update(key, e, cyc)
		}
		return cyc, units.Energy(float64(e) * float64(scale)), srcSampling
	}

	cyc, e := cs.runISS(mi, r, preVars)
	if cs.swCache != nil {
		cs.swCache.Update(key, e, cyc)
	}
	return cyc, e, srcISS
}

// runISS replays the reaction on the generated code: bind inputs, run to the
// return breakpoint, collect cycles and energy (Fig 2(b)'s "input vectors,
// state, commands" / "cycles, power" exchange).
func (cs *CoSim) runISS(mi int, r *cfsm.Reaction, preVars []cfsm.Value) (uint64, units.Energy) {
	mc := cs.image.Machines[cs.swIdx[mi]]
	if cs.swSync[mi] {
		mc.SyncVars(cs.cpu.Mem, preVars)
		cs.swSync[mi] = false
	}
	mc.BindReaction(cs.cpu.Mem, r)
	mark := cs.spans.BeginWith("iss", cs.sys.Net.Machines[mi].Name, int64(r.Path))
	_, st, err := cs.cpu.Call(mc.Entries[r.TransIdx])
	mark.End(st.Cycles, st.Energy)
	if err != nil {
		cs.fail(err)
		return 0, 0
	}
	cs.outbox = mc.ReadOutbox(cs.outbox[:0], cs.cpu.Mem) // drain; behavioral emissions drive delivery
	cs.issCalls++
	cs.machineEstCalls[mi]++
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindISSCall,
		Component: cs.sys.Net.Machines[mi].Name, Machine: mi,
		Path: uint64(r.Path), Cycles: st.Cycles, Energy: st.Energy,
	})
	return st.Cycles, st.Energy
}

// shadowSW re-runs an accelerated SW serve on the reference ISS and books
// the divergence. It deliberately bypasses the issCalls/machineEstCalls
// accounting and emits no KindISSCall event — shadow runs are audit
// overhead, not part of the estimate (the auditor keeps its own
// counters). cache, when non-nil, receives the fresh reference
// observation, preceded by an invalidation when the auditor flags drift
// past the threshold (continuous re-characterization).
func (cs *CoSim) shadowSW(tech audit.Technique, cache *ecache.Cache, key ecache.Key, r *cfsm.Reaction, preVars []cfsm.Value, served units.Energy) {
	mi := key.Machine
	mc := cs.image.Machines[cs.swIdx[mi]]
	if cs.swSync[mi] {
		mc.SyncVars(cs.cpu.Mem, preVars)
		cs.swSync[mi] = false
	}
	mc.BindReaction(cs.cpu.Mem, r)
	_, st, err := cs.cpu.Call(mc.Entries[r.TransIdx])
	if err != nil {
		cs.fail(err)
		return
	}
	cs.outbox = mc.ReadOutbox(cs.outbox[:0], cs.cpu.Mem)
	out := cs.audit.Observe(tech, served, st.Energy)
	cs.emitShadow(mi, r, tech.String(), served, st.Energy, st.Cycles)
	if cache != nil {
		if out.Invalidate {
			cache.Invalidate(key)
		}
		cache.Update(key, st.Energy, st.Cycles)
	}
}

// finishSampling settles the energy of reactions that were skipped after the
// last dispatched sample of their path, in (machine, path) order, so that
// the additions into each machine's energy are made in one fixed order.
func (cs *CoSim) finishSampling() {
	if !cs.cfg.Accel.Sampling {
		return
	}
	for _, key := range cs.sampleKeys() {
		st := cs.samples[key]
		if st.sinceSample > 0 && st.energy.N() > 0 {
			cs.book(key.Machine, srcSampling, key.Path, units.Energy(st.energy.Mean()*float64(st.sinceSample)))
			st.sinceSample = 0
		}
	}
}

// sampleKeys returns the sampled paths in (machine, path) order.
func (cs *CoSim) sampleKeys() []ecache.Key {
	keys := make([]ecache.Key, 0, len(cs.samples))
	for k := range cs.samples {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b ecache.Key) int {
		if c := cmp.Compare(a.Machine, b.Machine); c != 0 {
			return c
		}
		return cmp.Compare(a.Path, b.Path)
	})
	return keys
}
