package core

import (
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/hwsyn"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// activateHW pokes a hardware block: if the engine is busy the activation
// queues; otherwise the next enabled transition starts executing.
func (cs *CoSim) activateHW(mi int) {
	ex := cs.hw[mi]
	if ex.busy {
		ex.pending++
		return
	}
	cs.startHW(mi, ex)
}

func (cs *CoSim) startHW(mi int, ex *hwExec) {
	m := cs.sys.Net.Machines[mi]
	if m.Enabled() < 0 {
		return
	}
	b := &cs.bufs[mi]
	b.preVars = m.AppendVars(b.preVars[:0])
	preVars := b.preVars
	r, ok := m.React(cs.shared)
	if !ok {
		return
	}
	cs.machineReact[mi]++
	mReactions.Inc()
	cs.emitReaction(mi, r, 0, 0, 0)

	if cs.cfg.Mode == Separate {
		cs.record(mi, r, preVars)
		cs.deliver(mi, r)
		if m.Enabled() >= 0 {
			cs.kernel.After(0, func() { cs.startHW(mi, ex) })
		}
		return
	}

	ex.busy = true
	key := ecache.Key{Machine: mi, Path: r.Path}

	// Energy-cache hit: skip the gate-level simulator entirely. The cached
	// energy includes the bus-stall cycles of the original measurements,
	// but the cached cycle count excludes them: the bus transactions still
	// occur in the replay (the integration architecture is part of the
	// system, not the estimator), and their waits advance time there.
	if cs.hwCache != nil {
		e, cyc, ok := cs.hwCache.Lookup(key)
		cs.emitECache(mi, r, ok)
		if ok {
			if cs.audit.Should() {
				cs.shadowHW(ex, key, r, preVars, e)
			} else {
				ex.stale = true
			}
			cs.finishHW(mi, ex, r, cyc, e, srcECache)
			return
		}
	}

	if ex.stale {
		vals := make([]uint32, len(preVars))
		for i, v := range preVars {
			vals[i] = uint32(v)
		}
		ex.driver.SyncVars(vals)
		ex.stale = false
	}

	e, err := ex.driver.Begin(r)
	if err != nil {
		cs.fail(err)
		return
	}
	cs.gateExecs++
	cs.machineEstCalls[mi]++
	run := ex.run
	if run == nil {
		run = &hwRun{cs: cs, mi: mi, ex: ex}
		run.submitFn = run.submit
		run.req.Done = run.granted
		run.finishFn = run.finish
		ex.run = run
	}
	run.exec, run.r, run.key, run.memIdx = e, r, key, 0
	run.wallStart, run.wallBusy = 0, 0
	run.pump()
}

// hwRun tracks one incremental engine execution. Each hardware machine
// runs one at a time, so its hwExec keeps one record and reuses it
// execution after execution, with the bus request, the block buffer and
// the callbacks bound once, when the record is made.
type hwRun struct {
	cs  *CoSim
	mi  int
	ex  *hwExec
	r   *cfsm.Reaction
	key ecache.Key

	exec   *hwsyn.Exec
	memIdx int // consumption pointer into the reaction's MemOps

	// The memory request the engine waits on, and the block transfer
	// that serves it: its request, its data and when it was submitted.
	want     hwsyn.Req
	req      bus.Request
	data     []uint32
	reqStart units.Time

	submitFn, finishFn func() // submit and finish, bound once

	// Wall-clock accounting for the request trace: the engine runs in
	// chunks between bus stalls, so the gate span is recorded at
	// completion from the first chunk's start and the accumulated busy
	// time. Busy time counts the host time spent clocking, stall cycles
	// included; only the bus waits in DE time lie outside it. Zero/unused
	// when the run is untraced.
	wallStart int64
	wallBusy  int64
}

// pump advances the engine until its next memory request, schedules the
// elapsed engine time in DE time, arbitrates the block transfer on the
// shared bus, stalls the engine for the measured wait, and resumes — the
// cycle-interleaved HW/bus coupling of the paper's framework.
func (run *hwRun) pump() {
	cs := run.cs
	c0 := run.exec.Stats().Cycles
	var chunkStart int64
	if cs.spans != nil {
		chunkStart = cs.spans.Now()
		if run.wallStart == 0 {
			run.wallStart = chunkStart
		}
	}
	req, needMem, err := run.exec.Run()
	if cs.spans != nil {
		run.wallBusy += cs.spans.Now() - chunkStart
	}
	if err != nil {
		cs.fail(err)
		return
	}
	elapsed := units.Time(run.exec.Stats().Cycles-c0) * cs.cfg.HWClock.Period()
	if !needMem {
		cs.kernel.After(elapsed, run.finishFn)
		return
	}
	run.want = req
	cs.kernel.After(elapsed, run.submitFn)
}

// submit puts the block transfer that serves the engine's request on the
// bus.
func (run *hwRun) submit() {
	cs := run.cs
	addr, write := run.blockFor()
	run.reqStart = cs.kernel.Now()
	run.req.Master, run.req.Addr, run.req.Data, run.req.Write = run.mi, addr*4, run.data, write
	cs.bus.Submit(&run.req)
}

// granted stalls the engine for the bus wait, credits it the block and
// resumes it.
func (run *hwRun) granted() {
	cs := run.cs
	wait := uint64((cs.kernel.Now() - run.reqStart) / cs.cfg.HWClock.Period())
	var stallStart int64
	if cs.spans != nil {
		stallStart = cs.spans.Now()
	}
	run.exec.Stall(wait)
	if cs.spans != nil {
		run.wallBusy += cs.spans.Now() - stallStart
	}
	addr := run.req.Addr / 4
	if run.req.Write {
		for i := range run.data {
			run.exec.CreditWrite(addr + uint32(i))
		}
	} else {
		for i, d := range run.data {
			run.exec.CreditRead(addr+uint32(i), d)
		}
	}
	run.pump()
}

// finish books the completed execution. finishHW may start the machine's
// next execution in this record, so nothing here reads the record after.
func (run *hwRun) finish() {
	cs, mi, r := run.cs, run.mi, run.r
	st := run.exec.Stats()
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindGateEval,
		Component: cs.sys.Net.Machines[mi].Name, Machine: mi,
		Path: uint64(r.Path), Cycles: st.Cycles, Energy: st.Energy,
	})
	cs.spans.Complete("gate", cs.sys.Net.Machines[mi].Name, run.wallStart, run.wallBusy, st.Cycles, st.Energy)
	if cs.hwCache != nil {
		// Cache the stall-free cycle count: the cached replay
		// re-runs the bus transfers in DE time, so wait time must
		// not be double-counted.
		cs.hwCache.Update(run.key, st.Energy, st.ComputeCycles())
	}
	cs.machineCycles[mi] += st.Cycles
	cs.finishHW(mi, run.ex, r, 0, st.Energy, srcGate)
}

// blockFor resolves the engine's memory request against the behavioral
// reaction's access trace: the block is the run of consecutive same-type
// accesses starting at the requested address, up to the DMA block size —
// the burst the DMA-capable master fetches per arbitration. It fills the
// run's block buffer and returns the block's word address and direction.
func (run *hwRun) blockFor() (uint32, bool) {
	cs, req, ops := run.cs, run.want, run.r.MemOps
	// Find the matching access at or after the consumption pointer.
	start := -1
	for i := run.memIdx; i < len(ops); i++ {
		if ops[i].Addr == req.Addr && ops[i].Write == req.Write {
			start = i
			break
		}
	}
	if start < 0 {
		// Stale engine state diverged from the behavioral trace; fall back
		// to a single-word transfer backed by behavioral shared memory.
		if req.Write {
			run.data = append(run.data[:0], req.WData)
		} else {
			run.data = append(run.data[:0], uint32(cs.shared.Peek(req.Addr)))
		}
		return req.Addr, req.Write
	}
	end := start + 1
	for end < len(ops) && end-start < cs.cfg.Bus.DMASize &&
		ops[end].Write == req.Write && ops[end].Addr == ops[end-1].Addr+1 {
		end++
	}
	run.data = run.data[:0]
	for _, op := range ops[start:end] {
		run.data = append(run.data, uint32(op.Data))
	}
	run.memIdx = end
	return ops[start].Addr, req.Write
}

// shadowHW re-runs a cache-served HW reaction on the reference gate-level
// driver, synchronously and with zero-wait memory service from the
// reaction's own behavioral access trace, and books the divergence. The
// comparison carries a small systematic component: the cached energy
// includes the bus-stall cycles of the original pumped measurements while
// the shadow run is stall-free. Cycles compare cleanly — the cache stores
// stall-free counts. The reference execution leaves the driver registers
// current, so the stale flag clears. Like shadowSW, it bypasses the
// gateExecs/machineEstCalls accounting and emits no KindGateEval event.
func (cs *CoSim) shadowHW(ex *hwExec, key ecache.Key, r *cfsm.Reaction, preVars []cfsm.Value, served units.Energy) {
	mi := key.Machine
	if ex.stale {
		vals := make([]uint32, len(preVars))
		for i, v := range preVars {
			vals[i] = uint32(v)
		}
		ex.driver.SyncVars(vals)
		ex.stale = false
	}
	st, err := ex.driver.ExecTransition(r, nil)
	if err != nil {
		cs.fail(err)
		return
	}
	out := cs.audit.Observe(audit.TechECacheHW, served, st.Energy)
	cs.emitShadow(mi, r, audit.TechECacheHW.String(), served, st.Energy, st.ComputeCycles())
	if out.Invalidate {
		// Unlike the SW shadow, the stall-free reference observation is NOT
		// folded back into the cache — it would bias future serves low.
		// Invalidation forces the next occurrence down the measured path,
		// which re-characterizes the entry with its real stall context.
		cs.hwCache.Invalidate(key)
	}
}

// finishHW completes a hardware reaction: for cached reactions, lumpCycles
// spreads the cached duration (and the bus groups replay concurrently); for
// measured ones the engine time already elapsed during pumping. src names
// the costing technique.
func (cs *CoSim) finishHW(mi int, ex *hwExec, r *cfsm.Reaction, lumpCycles uint64, energy units.Energy, src source) {
	cs.book(mi, src, r.Path, energy)
	cs.transEnergy[mi][r.TransIdx] += energy
	cs.transCount[mi][r.TransIdx]++

	if lumpCycles == 0 {
		// Measured execution: time already advanced by the pump.
		cs.completeHW(mi, ex, r, 0)
		return
	}
	complete := func() { cs.completeHW(mi, ex, r, lumpCycles) }

	// Cached execution: replay duration and bus traffic concurrently.
	end := cs.kernel.Now() + units.Time(lumpCycles)*cs.cfg.HWClock.Period()
	outstanding := 1 // barrier token
	var onZero func()
	release := func() {
		outstanding--
		if outstanding == 0 && onZero != nil {
			onZero()
		}
	}
	for _, g := range cs.bufs[mi].groupMemOps(r.MemOps) {
		outstanding++
		cs.bus.Submit(&bus.Request{
			Master: mi, Addr: g.addr * 4, Data: g.data, Write: g.write,
			Done: release,
		})
	}
	onZero = complete
	cs.kernel.At(end, release) // the barrier token: compute time elapsed
}

// completeHW delivers a finished hardware reaction and starts the
// machine's next one, if any.
func (cs *CoSim) completeHW(mi int, ex *hwExec, r *cfsm.Reaction, lumpCycles uint64) {
	cs.machineCycles[mi] += lumpCycles // measured cycles were added by the pump
	cs.deliver(mi, r)
	ex.busy = false
	if ex.pending > 0 {
		ex.pending--
		cs.startHW(mi, ex)
	} else if cs.sys.Net.Machines[mi].Enabled() >= 0 {
		cs.startHW(mi, ex)
	}
}
