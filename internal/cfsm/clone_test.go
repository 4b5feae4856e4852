package cfsm

import (
	"reflect"
	"testing"
)

// cloneTestMachine builds a two-state machine with one input, one output and
// one variable, mirroring the shape the builders produce.
func cloneTestMachine(t *testing.T, name string) *CFSM {
	t.Helper()
	b := NewBuilder(name)
	idle := b.State("idle")
	busy := b.State("busy")
	in := b.Input("go")
	out := b.Output("done")
	v := b.Var("count", 1)
	b.On(idle, in).Named("start").
		Do(Set(v, Add(b.V(v), Const(1))), Emit(out, b.V(v))).
		Goto(busy)
	b.On(busy, in).Named("stop").
		Do(Emit(out, Const(0))).
		Goto(idle)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestCFSMCloneIsolatesRuntimeState(t *testing.T) {
	m := cloneTestMachine(t, "m")
	m.Post(0, 7)

	c := m.Clone()
	if c.State() != m.State() || !c.Pending(0) || c.InputVal(0) != 7 {
		t.Fatalf("clone did not capture runtime state")
	}

	// Advancing the clone must not disturb the original.
	if _, ok := c.React(NullEnv{}); !ok {
		t.Fatalf("clone did not react")
	}
	if c.State() == m.State() {
		t.Fatalf("clone state did not advance independently")
	}
	if m.VarValue(0) != 1 {
		t.Fatalf("original variable mutated by clone reaction: %d", m.VarValue(0))
	}
	if c.VarValue(0) != 2 {
		t.Fatalf("clone variable = %d, want 2", c.VarValue(0))
	}
	if !m.Pending(0) {
		t.Fatalf("original lost its pending event")
	}
}

func TestNetCloneSharesWiringClonesMachines(t *testing.T) {
	n := NewNet()
	ai := n.Add(cloneTestMachine(t, "m1"))
	bi := n.Add(cloneTestMachine(t, "m2"))
	n.Connect(ai, 0, bi, 0)
	n.EnvInput("kick", ai, 0)
	n.EnvOutput("obs", bi, 0)
	n.Reset()

	c := n.Clone()
	if len(c.Machines) != 2 || c.Machines[0] == n.Machines[0] {
		t.Fatalf("machines not cloned")
	}
	if got := c.Fanout(ai, 0); len(got) != 1 || got[0] != (Dest{Machine: bi, Port: 0}) {
		t.Fatalf("wiring lost in clone: %v", got)
	}
	if got := c.EnvDest("kick"); len(got) != 1 {
		t.Fatalf("env input lost in clone: %v", got)
	}
	if got := c.EnvNames(bi, 0); len(got) != 1 || got[0] != "obs" {
		t.Fatalf("env output lost in clone: %v", got)
	}

	// Mutating the clone's machine state leaves the original untouched.
	c.Machines[0].Post(0, 3)
	if n.Machines[0].Pending(0) {
		t.Fatalf("posting to clone leaked into original")
	}
}

// TestCloneSharesNoReactionBuffers pins the lifetime rule of React's
// reused buffers across Clone: a clone reacting into its own buffers must
// leave the original's last Reaction exactly as the original produced it.
func TestCloneSharesNoReactionBuffers(t *testing.T) {
	m := cloneTestMachine(t, "m")
	m.Post(0, 7)
	r, ok := m.React(NullEnv{})
	if !ok {
		t.Fatal("original did not react")
	}
	want := r.Copy()

	c := m.Clone()
	c.Post(0, 9)
	cr, ok := c.React(NullEnv{})
	if !ok {
		t.Fatal("clone did not react")
	}
	if cr == r || cr.Machine != c {
		t.Fatalf("clone returned the original's reaction (machine %p, original %p)", cr.Machine, m)
	}
	if cr.TransIdx == r.TransIdx {
		t.Fatalf("clone fired the original's transition %d; the test needs a different one", r.TransIdx)
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("clone's reaction changed the original's last reaction:\n got %+v\nwant %+v", r, want)
	}
}
