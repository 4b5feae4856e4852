package hwsyn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/units"
)

type sharedMem map[uint32]cfsm.Value

func (m sharedMem) MemRead(a uint32) cfsm.Value     { return m[a] }
func (m sharedMem) MemWrite(a uint32, v cfsm.Value) { m[a] = v }

// hw builds a module + driver for one machine.
func hw(t *testing.T, m *cfsm.CFSM) *Driver {
	t.Helper()
	mod, err := Synthesize(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewDriver(mod, 3.3)
}

// replay runs one behavioral reaction and its hardware execution, checking
// variables (mod datapath width) and emissions.
func replay(t *testing.T, d *Driver, shm sharedMem, post map[int]cfsm.Value) (*cfsm.Reaction, ExecStats) {
	t.Helper()
	m := d.Mod.M
	for p, v := range post {
		m.Post(p, v)
	}
	r, ok := m.React(shm)
	if !ok {
		t.Fatalf("machine %s did not react", m.Name)
	}
	var handler MemHandler
	if shm != nil {
		handler = func(addr, wdata uint32, write bool) (uint32, uint64) {
			if write {
				// The HW already computed the store value; mirror it so
				// subsequent behavioral reads (next reactions) can check.
				return 0, 0
			}
			return uint32(shm[addr]) & d.Mask(), 0
		}
	}
	st, err := d.ExecTransition(r, handler)
	if err != nil {
		t.Fatal(err)
	}
	for vi, name := range m.VarNames {
		want := uint32(m.VarValue(vi)) & d.Mask()
		if got := d.VarValue(vi); got != want {
			t.Fatalf("%s var %s: hw %#x, behavioral %#x", m.Name, name, got, want)
		}
	}
	wantEmits := map[int]cfsm.Value{}
	for _, e := range r.Emits {
		wantEmits[e.Port] = cfsm.Value(uint32(e.Value) & d.Mask())
	}
	gotEmits := map[int]cfsm.Value{}
	for _, e := range st.Emits {
		gotEmits[e.Port] = e.Value
	}
	if len(gotEmits) != len(wantEmits) {
		t.Fatalf("%s: hw emits %v, behavioral %v", m.Name, st.Emits, r.Emits)
	}
	for p, v := range wantEmits {
		if gotEmits[p] != v {
			t.Fatalf("%s port %d: hw %d, behavioral %d", m.Name, p, gotEmits[p], v)
		}
	}
	return r, st
}

func counterMachine(limit cfsm.Value) *cfsm.CFSM {
	b := cfsm.NewBuilder("counter")
	s := b.State("run")
	in := b.Input("INC")
	out := b.Output("OVF")
	v := b.Var("CNT", 0)
	b.On(s, in).Do(
		cfsm.Set(v, cfsm.Add(b.V(v), cfsm.Const(1))),
		cfsm.If(cfsm.Ge(b.V(v), cfsm.Const(limit)),
			cfsm.Block(cfsm.Emit(out, b.V(v)), cfsm.Set(v, cfsm.Const(0))),
			nil,
		),
	)
	return b.MustBuild()
}

func TestCounterMatchesBehavioral(t *testing.T) {
	d := hw(t, counterMachine(3))
	for i := 0; i < 10; i++ {
		replay(t, d, nil, map[int]cfsm.Value{0: 1})
	}
}

func TestCyclesReflectPathLength(t *testing.T) {
	d := hw(t, counterMachine(3))
	_, short := replay(t, d, nil, map[int]cfsm.Value{0: 1}) // no overflow
	replay(t, d, nil, map[int]cfsm.Value{0: 1})
	_, long := replay(t, d, nil, map[int]cfsm.Value{0: 1}) // overflow path
	if long.Cycles <= short.Cycles {
		t.Fatalf("overflow path (%d cycles) not longer than plain (%d)", long.Cycles, short.Cycles)
	}
	if long.Energy <= short.Energy {
		t.Fatalf("overflow path (%v) not costlier than plain (%v)", long.Energy, short.Energy)
	}
}

func TestLoopsInHardware(t *testing.T) {
	b := cfsm.NewBuilder("loop")
	s := b.State("s")
	in := b.Input("GO")
	acc := b.Var("ACC", 0)
	b.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Repeat(b.EvVal(in),
			cfsm.Set(acc, cfsm.Add(b.V(acc), cfsm.Const(3))),
		),
	)
	d := hw(t, b.MustBuild())
	for _, n := range []cfsm.Value{0, 1, 5, 13} {
		_, st := replay(t, d, nil, map[int]cfsm.Value{0: n})
		if d.Mod.M.VarValue(0) != n*3 {
			t.Fatalf("ACC = %d, want %d", d.Mod.M.VarValue(0), n*3)
		}
		if st.Cycles < uint64(n) {
			t.Fatalf("n=%d took only %d cycles", n, st.Cycles)
		}
	}
}

func TestNestedLoopsInHardware(t *testing.T) {
	b := cfsm.NewBuilder("nest")
	s := b.State("s")
	in := b.Input("GO")
	acc := b.Var("ACC", 0)
	b.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Repeat(b.EvVal(in),
			cfsm.Repeat(cfsm.Const(2),
				cfsm.Set(acc, cfsm.Add(b.V(acc), cfsm.Const(1)))),
		),
	)
	d := hw(t, b.MustBuild())
	replay(t, d, nil, map[int]cfsm.Value{0: 4})
	if d.Mod.M.VarValue(0) != 8 {
		t.Fatalf("ACC = %d, want 8", d.Mod.M.VarValue(0))
	}
}

func TestGuardedTransitionsInHardware(t *testing.T) {
	b := cfsm.NewBuilder("guard")
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 0)
	b.On(s, in).When(cfsm.Ge(b.EvVal(in), cfsm.Const(10))).Do(cfsm.Set(v, cfsm.Const(1)))
	b.On(s, in).Do(cfsm.Set(v, cfsm.Const(2)))
	d := hw(t, b.MustBuild())
	r, _ := replay(t, d, nil, map[int]cfsm.Value{0: 50})
	if r.TransIdx != 0 {
		t.Fatal("wrong transition")
	}
	r, _ = replay(t, d, nil, map[int]cfsm.Value{0: 2})
	if r.TransIdx != 1 {
		t.Fatal("wrong fallback transition")
	}
}

func TestExpressionOpsInHardware(t *testing.T) {
	ops := []struct {
		name  string
		build func(b *cfsm.Builder, in, v int) *cfsm.Expr
	}{
		{"add", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Add(b.EvVal(in), b.V(v)) }},
		{"sub", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Sub(b.EvVal(in), b.V(v)) }},
		{"neg", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ANEG, b.EvVal(in)) }},
		{"abs", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AABS, b.EvVal(in)) }},
		{"and", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.And(b.EvVal(in), b.V(v)) }},
		{"or", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Or(b.EvVal(in), b.V(v)) }},
		{"xor", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Xor(b.EvVal(in), b.V(v)) }},
		{"not", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ANOT, b.EvVal(in)) }},
		{"shl", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ASHL, b.EvVal(in), cfsm.Const(3)) }},
		{"shr", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ASHR, b.EvVal(in), cfsm.Const(2)) }},
		{"eq", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Eq(b.EvVal(in), b.V(v)) }},
		{"ne", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Ne(b.EvVal(in), b.V(v)) }},
		{"lt", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Lt(b.EvVal(in), b.V(v)) }},
		{"le", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Le(b.EvVal(in), b.V(v)) }},
		{"gt", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Gt(b.EvVal(in), b.V(v)) }},
		{"ge", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Ge(b.EvVal(in), b.V(v)) }},
		{"min", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AMIN, b.EvVal(in), b.V(v)) }},
		{"max", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AMAX, b.EvVal(in), b.V(v)) }},
		{"land", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALAND, b.EvVal(in), b.V(v)) }},
		{"lor", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALOR, b.EvVal(in), b.V(v)) }},
		{"lnot", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALNOT, b.EvVal(in)) }},
		{"mux", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Fn(cfsm.AMUX, b.EvVal(in), b.V(v), cfsm.Const(-3))
		}},
	}
	// 16-bit-safe inputs (datapath truncates; behavioral works on int32, so
	// results must stay representable).
	inputs := []cfsm.Value{0, 1, -1, 7, -7, 100, 255, -128, 32}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			b := cfsm.NewBuilder(op.name)
			s := b.State("s")
			in := b.Input("IN")
			v := b.Var("V", 9)
			w := b.Var("W", 0)
			b.On(s, in).Do(cfsm.Set(w, op.build(b, in, v)))
			d := hw(t, b.MustBuild())
			for _, x := range inputs {
				replay(t, d, nil, map[int]cfsm.Value{0: x})
			}
		})
	}
}

func TestSharedMemoryHandshake(t *testing.T) {
	b := cfsm.NewBuilder("shm")
	s := b.State("s")
	in := b.Input("GO")
	v := b.Var("V", 0)
	b.On(s, in).Do(
		cfsm.MemRead(v, cfsm.Const(5)),
		cfsm.Set(v, cfsm.Add(b.V(v), cfsm.Const(1))),
		cfsm.MemWrite(cfsm.Const(6), b.V(v)),
	)
	d := hw(t, b.MustBuild())
	shm := sharedMem{5: 41}

	var writes []struct {
		addr, data uint32
	}
	handler := func(addr, wdata uint32, write bool) (uint32, uint64) {
		if write {
			writes = append(writes, struct{ addr, data uint32 }{addr, wdata})
			return 0, 3 // three wait cycles
		}
		return uint32(shm[addr]), 5 // five wait cycles
	}
	m := d.Mod.M
	m.Post(0, 0)
	r, _ := m.React(shm)
	st, err := d.ExecTransition(r, handler)
	if err != nil {
		t.Fatal(err)
	}
	if d.VarValue(0) != 42 {
		t.Fatalf("V = %d, want 42", d.VarValue(0))
	}
	if len(writes) != 1 || writes[0].addr != 6 || writes[0].data != 42 {
		t.Fatalf("writes = %+v", writes)
	}
	if st.MemOps != 2 {
		t.Fatalf("memops = %d, want 2", st.MemOps)
	}
	// Wait cycles must be burned on the clock: at least 8 extra cycles.
	if st.Cycles < 8 {
		t.Fatalf("cycles = %d, want >= 8 with stalls", st.Cycles)
	}
}

func TestMemReadInsideLoop(t *testing.T) {
	// Regression: a mem step inside a loop revisits the same micro-PC every
	// iteration; each visit must be serviced afresh.
	b := cfsm.NewBuilder("loopmem")
	s := b.State("s")
	in := b.Input("GO")
	acc := b.Var("ACC", 0)
	i := b.Var("I", 0)
	w := b.Var("W", 0)
	b.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Set(i, cfsm.Const(0)),
		cfsm.Repeat(b.EvVal(in),
			cfsm.MemRead(w, b.V(i)),
			cfsm.Set(acc, cfsm.Add(b.V(acc), b.V(w))),
			cfsm.Set(i, cfsm.Add(b.V(i), cfsm.Const(1))),
		),
	)
	d := hw(t, b.MustBuild())
	shm := sharedMem{0: 10, 1: 20, 2: 30, 3: 40}
	m := d.Mod.M
	m.Post(0, 4)
	r, _ := m.React(shm)
	st, err := d.ExecTransition(r, func(addr, wd uint32, wr bool) (uint32, uint64) {
		return uint32(shm[addr]), 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.VarValue(0) != 100 {
		t.Fatalf("ACC = %d, want 100", d.VarValue(0))
	}
	if st.MemOps != 4 {
		t.Fatalf("memops = %d, want 4", st.MemOps)
	}
}

func TestStallsBurnEnergy(t *testing.T) {
	b := cfsm.NewBuilder("stall")
	s := b.State("s")
	in := b.Input("GO")
	v := b.Var("V", 0)
	b.On(s, in).Do(cfsm.MemRead(v, cfsm.Const(0)))
	m := b.MustBuild()

	run := func(wait uint64) units.Energy {
		d := hw(t, m)
		m.Reset()
		m.Post(0, 0)
		r, _ := m.React(sharedMem{})
		st, err := d.ExecTransition(r, func(addr, w uint32, wr bool) (uint32, uint64) {
			return 0, wait
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Energy
	}
	fast, slow := run(0), run(50)
	if slow <= fast {
		t.Fatalf("50 stall cycles (%v) not costlier than 0 (%v)", slow, fast)
	}
}

func TestIdleCycles(t *testing.T) {
	d := hw(t, counterMachine(100))
	e := d.IdleCycles(10)
	if e <= 0 {
		t.Fatal("idle hardware must still dissipate clock power")
	}
	if d.Sim.Cycles() != 10 {
		t.Fatalf("cycles = %d, want 10", d.Sim.Cycles())
	}

	// IdleCycles advances through the fixed point of the held vector; a
	// twin clocked one Sim.Cycle at a time must agree bit for bit, over the
	// cycles above and over a longer stretch after them.
	twin := hw(t, counterMachine(100))
	twin.set(twin.Mod.Go, false)
	check := func(got units.Energy, n uint64) {
		t.Helper()
		var want units.Energy
		for i := uint64(0); i < n; i++ {
			want += twin.Sim.Cycle(twin.in)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) ||
			math.Float64bits(float64(d.Sim.Energy())) != math.Float64bits(float64(twin.Sim.Energy())) {
			t.Fatalf("IdleCycles(%d) = %v (total %v), cycle by cycle %v (total %v)",
				n, got, d.Sim.Energy(), want, twin.Sim.Energy())
		}
	}
	check(e, 10)
	check(d.IdleCycles(1000), 1000)
}

func TestUnsupportedOpsRejected(t *testing.T) {
	b := cfsm.NewBuilder("mul")
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 0)
	b.On(s, in).Do(cfsm.Set(v, cfsm.Mul(b.EvVal(in), b.V(v))))
	if _, err := Synthesize(b.MustBuild(), DefaultConfig()); err == nil {
		t.Fatal("AMUL must be rejected by hardware synthesis")
	}

	b2 := cfsm.NewBuilder("shv")
	s2 := b2.State("s")
	in2 := b2.Input("IN")
	v2 := b2.Var("V", 0)
	b2.On(s2, in2).Do(cfsm.Set(v2, cfsm.Fn(cfsm.ASHL, b2.V(v2), b2.EvVal(in2))))
	if _, err := Synthesize(b2.MustBuild(), DefaultConfig()); err == nil {
		t.Fatal("variable shift must be rejected by hardware synthesis")
	}
}

func TestBadWidthRejected(t *testing.T) {
	if _, err := Synthesize(counterMachine(3), Config{Width: 0}); err == nil {
		t.Fatal("width 0 must be rejected")
	}
	if _, err := Synthesize(counterMachine(3), Config{Width: 64}); err == nil {
		t.Fatal("width 64 must be rejected")
	}
}

func TestNetlistSizeReported(t *testing.T) {
	mod, err := Synthesize(counterMachine(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := mod.N.Size()
	if st.Gates < 50 || st.DFFs < 16 {
		t.Fatalf("suspiciously small netlist: %+v", st)
	}
	if mod.NumSteps() < 4 {
		t.Fatalf("steps = %d", mod.NumSteps())
	}
	if mod.EntryStep(0) != 1 {
		t.Fatalf("entry step = %d, want 1", mod.EntryStep(0))
	}
}

func TestFuzzHardwareEquivalence(t *testing.T) {
	b := cfsm.NewBuilder("fuzz")
	s := b.State("s")
	in := b.Input("IN")
	out := b.Output("OUT")
	v1 := b.Var("V1", 3)
	v2 := b.Var("V2", 5)
	b.On(s, in).Do(
		cfsm.Set(v1, cfsm.Xor(b.V(v1), b.EvVal(in))),
		cfsm.If(cfsm.Lt(b.V(v1), cfsm.Const(0)),
			cfsm.Block(cfsm.Set(v1, cfsm.Fn(cfsm.AABS, b.V(v1)))),
			cfsm.Block(cfsm.Set(v2, cfsm.Add(b.V(v2), cfsm.Const(1)))),
		),
		cfsm.Repeat(cfsm.And(b.V(v1), cfsm.Const(7)),
			cfsm.Set(v2, cfsm.Add(b.V(v2), cfsm.Const(2))),
		),
		cfsm.If(cfsm.Gt(b.V(v2), cfsm.Const(50)),
			cfsm.Block(cfsm.Emit(out, b.V(v2)), cfsm.Set(v2, cfsm.Const(0))),
			nil,
		),
	)
	d := hw(t, b.MustBuild())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		// Keep values in the signed-16-bit-safe range.
		replay(t, d, nil, map[int]cfsm.Value{0: cfsm.Value(rng.Intn(1 << 14))})
	}
}
