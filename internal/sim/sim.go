// Package sim implements the deterministic discrete-event simulation kernel
// that plays the role of the PTOLEMY simulation master in the paper: it owns
// global simulated time, orders all component activity, and is the single
// point from which the lower-level power estimators (ISS, gate-level
// simulator, bus model, cache simulator) are invoked and synchronized.
//
// Determinism contract: events scheduled for the same instant fire in
// insertion order, so repeated runs of the same system produce bit-identical
// traces and energy reports.
//
// The scheduler is built for the co-estimation hot path: pending events are
// values in a 4-ary min-heap ordered by (time, insertion sequence), so
// steady-state scheduling and firing perform no heap allocations.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// event is one scheduled callback.
type event struct {
	at  units.Time
	seq uint64
	fn  func()
}

// before orders events by (time, insertion sequence).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event scheduler. The zero value is not ready for use;
// call NewKernel.
type Kernel struct {
	now     units.Time
	heap    []event // 4-ary min-heap ordered by event.before
	seq     uint64
	stopped bool
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() units.Time { return k.now }

// Pending returns the number of scheduled events — the work the simulation
// would still perform if resumed. A nonzero value after RunUntil(deadline)
// means the run was truncated by the deadline rather than finishing
// naturally.
func (k *Kernel) Pending() int { return len(k.heap) }

// At schedules fn to run at absolute time t.
// Scheduling in the past panics: it is always a model bug.
func (k *Kernel) At(t units.Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := event{at: t, seq: k.seq, fn: fn}
	k.seq++
	h := append(k.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	k.heap = h
}

// After schedules fn to run d from now. Negative delays panic.
func (k *Kernel) After(d units.Time, fn func()) { k.At(k.now+d, fn) }

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	h := k.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the fired closure
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			least, end := first, min(first+4, n)
			for c := first + 1; c < end; c++ {
				if h[c].before(&h[least]) {
					least = c
				}
			}
			if !h[least].before(&last) {
				break
			}
			h[i] = h[least]
			i = least
		}
		h[i] = last
	}
	k.heap = h
	return root
}

// Stop makes the current Run return once the in-flight event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step fires the next pending event, if any, advancing time to it.
// It reports whether an event fired.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	ev := k.pop()
	k.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue drains or Stop is called.
func (k *Kernel) Run() { k.RunUntil(units.Forever) }

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// the deadline (if the simulation got that far) and returns. It also returns
// early if the queue drains or Stop is called; in the drained case the clock
// stays at the last event time.
func (k *Kernel) RunUntil(deadline units.Time) { k.RunUntilInterrupted(deadline, nil) }

// RunUntilInterrupted is RunUntil with an external abort signal: when done
// becomes readable (or closed) the loop stops between two events — within
// one event quantum of the signal — and the call reports true. A nil done
// is never polled, so RunUntil pays nothing for it. An interrupted kernel
// is resumable: the clock and the pending queue are exactly as the last
// completed event left them.
func (k *Kernel) RunUntilInterrupted(deadline units.Time, done <-chan struct{}) bool {
	k.stopped = false
	for !k.stopped {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		if len(k.heap) == 0 {
			return false
		}
		if k.heap[0].at > deadline {
			k.now = deadline
			return false
		}
		k.Step()
	}
	return false
}

// Ticker invokes fn every period until the returned stop function is called.
// The first tick fires one full period from now. fn receives the tick index,
// starting at 0.
func (k *Kernel) Ticker(period units.Time, fn func(n uint64)) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	stopped := false
	var n uint64
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		i := n
		n++
		k.After(period, tick)
		fn(i)
	}
	k.After(period, tick)
	return func() { stopped = true }
}
