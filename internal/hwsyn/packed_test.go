package hwsyn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/cfsmtest"
)

// execVia drives one transition through the Engine interface with the same
// Begin/Run/Stall/Credit loop the co-simulation core uses.
func execVia(eng Engine, r *cfsm.Reaction, mem MemHandler) (ExecStats, error) {
	e, err := eng.Begin(r)
	if err != nil {
		return ExecStats{}, err
	}
	for {
		req, needMem, err := e.Run()
		if err != nil {
			return e.Stats(), err
		}
		if !needMem {
			return e.Stats(), nil
		}
		rdata, wait := mem(req.Addr, req.WData, req.Write)
		e.Stall(wait)
		if req.Write {
			e.CreditWrite(req.Addr)
		} else {
			e.CreditRead(req.Addr, rdata)
		}
	}
}

func varValueOf(eng Engine, vi int) uint32 {
	return eng.(interface{ VarValue(int) uint32 }).VarValue(vi)
}

type transResult struct {
	st   ExecStats
	vars []uint32
}

// runSeq replays a deterministic stimulus sequence (seeded inputs, seeded
// bus-wait latencies of 0-5 cycles, periodic SyncVars forcing) on an engine
// and records per-transition stats and register state. The same seed on two
// engines of the same machine must produce bit-identical records.
func runSeq(eng Engine, seed int64, nTrans int, solo func(i int) bool) ([]transResult, error) {
	return runSeqWaits(eng, seed, nTrans, solo, 5)
}

// runSeqWaits is runSeq with bus waits drawn from 0..maxWait cycles.
func runSeqWaits(eng Engine, seed int64, nTrans int, solo func(i int) bool, maxWait int) ([]transResult, error) {
	m := eng.Module().M
	rng := rand.New(rand.NewSource(seed))
	shm := sharedMem{}
	for a := uint32(0); a < 64; a++ {
		shm[a] = cfsm.Value(rng.Intn(cfsmtest.Mask + 1))
	}
	var out []transResult
	for i := 0; i < nTrans; i++ {
		if i%3 == 1 {
			// Force divergent register state through ForceFlop, like the
			// acceleration paths do after skipped executions.
			vals := make([]uint32, len(m.VarNames))
			for vi := range vals {
				vals[vi] = uint32(rng.Intn(256))
			}
			eng.SyncVars(vals)
		}
		m.Post(0, cfsm.Value(rng.Intn(cfsmtest.Mask+1)))
		r, ok := m.React(shm)
		if !ok {
			return nil, fmt.Errorf("machine %s did not react", m.Name)
		}
		mem := func(addr, wdata uint32, write bool) (uint32, uint64) {
			wait := uint64(rng.Intn(maxWait + 1))
			if write {
				return 0, wait
			}
			for _, op := range r.MemOps {
				if !op.Write && op.Addr == addr {
					return uint32(op.Data), wait
				}
			}
			return 0, wait
		}
		var st ExecStats
		var err error
		if solo != nil && solo(i) {
			// The synchronous path (shadow audit / replay) interleaved with
			// the batched protocol.
			st, err = eng.ExecTransition(r, mem)
		} else {
			st, err = execVia(eng, r, mem)
		}
		if err != nil {
			return nil, err
		}
		vars := make([]uint32, len(m.VarNames))
		for vi := range vars {
			vars[vi] = varValueOf(eng, vi)
		}
		out = append(out, transResult{st, vars})
	}
	return out, nil
}

// testSched is a miniature column scheduler: lanes run strictly one at a
// time; when every live lane is parked in Run, the batch is materialized
// and the lanes resumed in ascending order.
type testSched struct {
	pm     *PackedModule
	park   chan int
	finish chan int
	resume []chan error
}

func newTestSched(nLanes int) *testSched {
	s := &testSched{
		park:   make(chan int),
		finish: make(chan int),
		resume: make([]chan error, nLanes),
	}
	for i := range s.resume {
		s.resume[i] = make(chan error)
	}
	return s
}

func (s *testSched) yield(lane int) error {
	s.park <- lane
	return <-s.resume[lane]
}

// run drives the lanes to completion. Each lane's body function runs on its
// own goroutine but only while the scheduler has handed it the baton.
func (s *testSched) run(lanes []int, body func(lane int)) {
	live := len(lanes)
	for _, l := range lanes {
		l := l
		go func() {
			<-s.resume[l]
			body(l)
			s.finish <- l
		}()
	}
	runnable := append([]int(nil), lanes...)
	var parked []int
	for live > 0 {
		if len(runnable) == 0 {
			s.pm.RunBatch()
			runnable, parked = parked, runnable[:0]
			continue
		}
		lane := runnable[0]
		runnable = runnable[1:]
		s.resume[lane] <- nil
		select {
		case l := <-s.park:
			parked = append(parked, l)
		case <-s.finish:
			live--
		}
	}
}

// TestPackedLanesMatchDriver pins the 64-lane engine to the per-run Driver:
// for random HW-safe machines, several lanes with fully divergent stimuli
// (different inputs, different bus latencies, different transition counts,
// interleaved forced registers and synchronous solo executions) must report
// cycle counts, stall counts, energies, emissions and memory-op counts
// bit-identical to a solo Driver fed the same sequence.
func TestPackedLanesMatchDriver(t *testing.T) {
	const nLanes = 6
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := cfsmtest.DefaultParams()
			p.HWSafe = true
			base := cfsmtest.Machine(fmt.Sprintf("pack%d", seed), p, rng)
			mod, err := Synthesize(base, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			laneSeed := func(l int) int64 { return seed*1000 + int64(l) }
			nTrans := func(l int) int { return 4 + l } // staggered lifetimes
			soloFn := func(l int) func(int) bool {
				if l%2 == 1 {
					return func(i int) bool { return i == 2 }
				}
				return nil
			}

			// Reference: independent Drivers, one per lane.
			want := make([][]transResult, nLanes)
			for l := 0; l < nLanes; l++ {
				modRef, err := mod.Rebind(base.Clone())
				if err != nil {
					t.Fatal(err)
				}
				d, err := NewDriver(modRef, 3.3)
				if err != nil {
					t.Fatal(err)
				}
				want[l], err = runSeq(DriverEngine{d}, laneSeed(l), nTrans(l), soloFn(l))
				if err != nil {
					t.Fatal(err)
				}
			}

			// Packed: the same sequences on lanes of one shared column.
			sched := newTestSched(nLanes)
			pm, err := NewPackedModule(mod, 3.3, sched.yield)
			if err != nil {
				t.Fatal(err)
			}
			sched.pm = pm
			engs := make([]*LaneEngine, nLanes)
			lanes := make([]int, nLanes)
			for l := 0; l < nLanes; l++ {
				modL, err := mod.Rebind(base.Clone())
				if err != nil {
					t.Fatal(err)
				}
				engs[l], err = pm.Bind(l, modL, 3.3)
				if err != nil {
					t.Fatal(err)
				}
				lanes[l] = l
			}
			got := make([][]transResult, nLanes)
			errs := make([]error, nLanes)
			sched.run(lanes, func(l int) {
				got[l], errs[l] = runSeq(engs[l], laneSeed(l), nTrans(l), soloFn(l))
			})

			for l := 0; l < nLanes; l++ {
				if errs[l] != nil {
					t.Fatalf("lane %d: %v", l, errs[l])
				}
				for i := range want[l] {
					if !reflect.DeepEqual(got[l][i], want[l][i]) {
						t.Errorf("lane %d transition %d:\n got %+v\nwant %+v",
							l, i, got[l][i], want[l][i])
					}
				}
			}
		})
	}
}

// TestPackedBindMismatch verifies structural/voltage guards: a module from a
// different machine, or the right machine at a different supply voltage,
// must be rejected with ErrPackMismatch.
func TestPackedBindMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := cfsmtest.DefaultParams()
	p.HWSafe = true
	mA := cfsmtest.Machine("mmA", p, rng)
	mB := cfsmtest.Machine("mmB", p, rng)
	modA, err := Synthesize(mA, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	modB, err := Synthesize(mB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPackedModule(modA, 3.3, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Bind(0, modA, 3.3); err != nil {
		t.Fatalf("self bind: %v", err)
	}
	if _, err := pm.Bind(1, modB, 3.3); err == nil {
		t.Fatal("foreign module must not bind")
	} else if !errors.Is(err, ErrPackMismatch) {
		t.Fatalf("want ErrPackMismatch, got %v", err)
	}
	if _, err := pm.Bind(1, modA, 2.5); err == nil {
		t.Fatal("wrong vdd must not bind")
	} else if !errors.Is(err, ErrPackMismatch) {
		t.Fatalf("want ErrPackMismatch, got %v", err)
	}
	if _, err := pm.Bind(64, modA, 3.3); err == nil {
		t.Fatal("lane out of range must not bind")
	}
}
