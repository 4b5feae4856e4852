package hwsyn

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfsm"
)

// replayMachine reads a run of consecutive words in a loop, writes their
// sum, reads two adjacent words around an emission and emits again. The
// synthesized engine drops its acknowledge and settles before each access,
// so a stall anywhere is steady.
func replayMachine() *cfsm.CFSM {
	b := cfsm.NewBuilder("replay")
	s := b.State("s")
	in := b.Input("GO")
	out := b.Output("SUM")
	acc, i, w, x, y := b.Var("ACC", 0), b.Var("I", 0), b.Var("W", 0), b.Var("X", 0), b.Var("Y", 0)
	b.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Set(i, cfsm.Const(0)),
		cfsm.Repeat(b.EvVal(in),
			cfsm.MemRead(w, cfsm.Add(cfsm.Const(8), b.V(i))),
			cfsm.Set(acc, cfsm.Add(b.V(acc), b.V(w))),
			cfsm.Set(i, cfsm.Add(b.V(i), cfsm.Const(1))),
		),
		cfsm.MemWrite(cfsm.Const(40), b.V(acc)),
		cfsm.Set(x, cfsm.Add(b.V(acc), cfsm.Const(1))),
		cfsm.MemRead(x, cfsm.Const(50)),
		cfsm.Emit(out, b.V(x)),
		cfsm.MemRead(y, cfsm.Const(51)),
		cfsm.Emit(out, cfsm.Add(b.V(acc), cfsm.Add(b.V(x), b.V(y)))),
	)
	return b.MustBuild()
}

// service is how a test master answers the engine's memory requests: the
// stall before the k-th request is served, and the block size it credits
// from the requested address on (the DMA block of the co-simulation core).
type service struct {
	wait  func(k int) uint64
	block int
	data  map[uint32]uint32 // read data overrides
}

// serve runs reaction r on d to completion under svc, reading from shm.
func serve(d *Driver, r *cfsm.Reaction, shm sharedMem, svc service) (ExecStats, error) {
	e, err := d.Begin(r)
	if err != nil {
		return ExecStats{}, err
	}
	for k := 0; ; k++ {
		req, needMem, err := e.Run()
		if err != nil {
			return e.Stats(), err
		}
		if !needMem {
			return e.Stats(), nil
		}
		e.Stall(svc.wait(k))
		for a := req.Addr; a < req.Addr+uint32(svc.block); a++ {
			if req.Write {
				e.CreditWrite(a)
				continue
			}
			v, ok := svc.data[a]
			if !ok {
				v = uint32(shm[a])
			}
			e.CreditRead(a, v)
		}
	}
}

// replayRig runs one event sequence on three drivers of one module: a
// recorder that fills a table under zero-wait service, then a replayer on
// that table and a fresh reference driver, both under the service under
// test.
type replayRig struct {
	t    *testing.T
	mod  *Module
	base *cfsm.CFSM
	tab  *Replay
}

func newReplayRig(t *testing.T) *replayRig {
	base := replayMachine()
	mod, err := Synthesize(base, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &replayRig{t: t, mod: mod, base: base, tab: NewReplay(1 << 20)}
}

// oscillate adds a free-running toggle flop to the rig's netlist, so that
// the engine is never at a fixed point: no access is steady.
func (rg *replayRig) oscillate() *replayRig {
	n := rg.mod.N
	q := n.Flop(n.Const(false), false, "osc")
	n.DFFs[len(n.DFFs)-1].D = n.Inv(q)
	if err := rg.mod.compile(); err != nil {
		rg.t.Fatal(err)
	}
	return rg
}

func (rg *replayRig) driver(tab *Replay) *Driver {
	m, err := rg.mod.Rebind(rg.base.Clone())
	if err != nil {
		rg.t.Fatal(err)
	}
	d := NewDriver(m, m.SwitchEnergies(3.3))
	d.Replay = tab
	d.Sim.Record(true)
	return d
}

var replayEvents = []cfsm.Value{5, 3, 5}

func replayShm() sharedMem {
	shm := sharedMem{}
	for a := uint32(0); a < 64; a++ {
		shm[a] = cfsm.Value(a*37 + 11)
	}
	return shm
}

// run drives the event sequence on d; each reaction's result, or error.
func (rg *replayRig) run(d *Driver, svc service) ([]ExecStats, error) {
	shm := replayShm()
	var out []ExecStats
	for _, ev := range replayEvents {
		d.Mod.M.Post(0, ev)
		r, ok := d.Mod.M.React(shm)
		if !ok {
			rg.t.Fatal("machine did not react")
		}
		st, err := serve(d, r, shm, svc)
		out = append(out, st)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func zeroWait(int) uint64 { return 0 }

// check records the sequence under zero-wait single-word service, then
// runs it under svc on a replaying and a fresh driver (with maxCycles,
// when nonzero), and requires the two to agree bit for bit on every
// execution's energy, cycles, stall cycles, emissions and memory
// operations, on any error, and on the simulators' totals, history and
// net values afterwards. It returns the replays and fallbacks counted.
func (rg *replayRig) check(svc service, maxCycles uint64) (replays, fallbacks uint64) {
	t := rg.t
	t.Helper()
	if _, err := rg.run(rg.driver(rg.tab), service{wait: zeroWait, block: 1}); err != nil {
		t.Fatal(err)
	}
	if n := len(rg.tab.courses); n < len(replayEvents) {
		t.Fatalf("recorded %d starts, want at least %d", n, len(replayEvents))
	}
	rep, ref := rg.driver(rg.tab), rg.driver(nil)
	if maxCycles > 0 {
		rep.MaxCycles, ref.MaxCycles = maxCycles, maxCycles
	}
	r0, f0 := mReplays.Value(), mFallbacks.Value()
	got, gerr := rg.run(rep, svc)
	replays, fallbacks = mReplays.Value()-r0, mFallbacks.Value()-f0
	want, werr := rg.run(ref, svc)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("error %v, want %v", gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d executions, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(float64(g.Energy)) != math.Float64bits(float64(w.Energy)) || !reflect.DeepEqual(g, w) {
			t.Fatalf("execution %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if math.Float64bits(float64(rep.Sim.Energy())) != math.Float64bits(float64(ref.Sim.Energy())) ||
		rep.Sim.Cycles() != ref.Sim.Cycles() || !slices.Equal(rep.Sim.History(), ref.Sim.History()) {
		t.Fatalf("simulator energy %v over %d cycles, want %v over %d",
			rep.Sim.Energy(), rep.Sim.Cycles(), ref.Sim.Energy(), ref.Sim.Cycles())
	}
	if !slices.Equal(rep.Sim.AppendState(nil), ref.Sim.AppendState(nil)) {
		t.Fatal("net values or flop state differ after the sequence")
	}
	if !slices.Equal(rep.in, ref.in) {
		t.Fatal("input vectors differ after the sequence")
	}
	return replays, fallbacks
}

// TestReplayUnderCreditPattern: DMA blocks of four words, served without
// waiting, keep every execution on its course.
func TestReplayUnderCreditPattern(t *testing.T) {
	replays, fallbacks := newReplayRig(t).check(service{wait: zeroWait, block: 4}, 0)
	if replays != uint64(len(replayEvents)) || fallbacks != 0 {
		t.Fatalf("%d replays, %d fallbacks; want %d, 0", replays, fallbacks, len(replayEvents))
	}
}

// TestReplayUnderStalls: stalls of varying length at block starts, every
// one at a steady access, only clock the engine.
func TestReplayUnderStalls(t *testing.T) {
	svc := service{wait: func(k int) uint64 { return uint64(7*k%23 + 1) }, block: 2}
	replays, fallbacks := newReplayRig(t).check(svc, 0)
	if replays != uint64(len(replayEvents)) || fallbacks != 0 {
		t.Fatalf("%d replays, %d fallbacks; want %d, 0", replays, fallbacks, len(replayEvents))
	}
}

// TestReplayReadMismatch: one read served other data than recorded leaves
// the replay at that access, and the execution records the course it
// takes from there; the next execution served the same way replays that
// course to the end.
func TestReplayReadMismatch(t *testing.T) {
	rg := newReplayRig(t)
	svc := service{wait: zeroWait, block: 4, data: map[uint32]uint32{10: 999}}
	replays, fallbacks := rg.check(svc, 0)
	if replays == 0 || fallbacks == 0 {
		t.Fatalf("%d replays, %d fallbacks; want both", replays, fallbacks)
	}
	if replays, fallbacks = rg.check(svc, 0); replays != uint64(len(replayEvents)) || fallbacks != 0 {
		t.Fatalf("again: %d replays, %d fallbacks; want %d, 0", replays, fallbacks, len(replayEvents))
	}
}

// TestReplayUnsteadyStall: on an engine that never sits at a fixed point,
// a stall at an access, which the zero-wait recording did not have, leaves
// the replay there.
func TestReplayUnsteadyStall(t *testing.T) {
	svc := service{wait: func(k int) uint64 { return uint64(k % 2 * 3) }, block: 1}
	replays, fallbacks := newReplayRig(t).oscillate().check(svc, 0)
	if replays == 0 || fallbacks != replays {
		t.Fatalf("%d replays, %d fallbacks; want every replay to fall back", replays, fallbacks)
	}
}

// TestReplayAcrossMaxCycles: a cycle bound that the first execution's
// stalls push it over fails the replay exactly where it fails the
// simulation.
func TestReplayAcrossMaxCycles(t *testing.T) {
	for _, max := range []uint64{1, 12, 40, 70} {
		rg := newReplayRig(t)
		svc := service{wait: func(int) uint64 { return 9 }, block: 2}
		if _, fallbacks := rg.check(svc, max); fallbacks == 0 {
			t.Fatalf("MaxCycles %d: no fallback", max)
		}
	}
}

// TestReplayBranchesOnlyOnSameReads: a replay served other read data
// continues in another recorded course only if that course read the same
// data there and at every access before; otherwise it falls back.
func TestReplayBranchesOnlyOnSameReads(t *testing.T) {
	rg := newReplayRig(t)
	for i, step := range []struct {
		data      map[uint32]uint32
		fallbacks bool
	}{
		{map[uint32]uint32{10: 999}, true},         // records a course that read 999 at 10
		{map[uint32]uint32{10: 444}, true},         // that course read other data at 10
		{map[uint32]uint32{9: 777, 10: 555}, true}, // records one that read 777 at 9
		{map[uint32]uint32{10: 555}, true},         // that one read other data before 10
		{map[uint32]uint32{10: 999}, false},        // the first recorded divergence, again
	} {
		replays, fallbacks := rg.check(service{wait: zeroWait, block: 4, data: step.data}, 0)
		if replays == 0 || (fallbacks > 0) != step.fallbacks {
			t.Fatalf("step %d: %d replays, %d fallbacks; want fallbacks %v", i, replays, fallbacks, step.fallbacks)
		}
	}
}
