package iss

import (
	"testing"

	"repro/internal/sparc"
)

// TestCallZeroAlloc is the PR 3 alloc-guard for the ISS: once the memory
// pages and window-spill stack are warm, the predecoded execution loop —
// including loads, stores, branches and a SAVE/RESTORE pair — must not
// allocate per Call.
func TestCallZeroAlloc(t *testing.T) {
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Save(-96)
	a.Movi(sparc.O0, 0)
	a.Movi(sparc.O1, 50)
	a.Label("loop")
	a.Op3(sparc.ADD, sparc.O0, sparc.O0, sparc.O1)
	a.Op3i(sparc.XOR, sparc.O2, sparc.O0, 0x55)
	a.Store(sparc.ST, sparc.O0, sparc.SP, 64)
	a.Load(sparc.LD, sparc.O3, sparc.SP, 64)
	a.Op3i(sparc.SUBCC, sparc.O1, sparc.O1, 1)
	a.Branch(sparc.BNE, "loop", false)
	a.Nop()
	a.Restore()
	a.Retl()
	a.Nop()
	c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
	c.LoadProgram(a.MustAssemble())

	if _, _, err := c.Call(0x1000); err != nil { // warm pages and spill stack
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := c.Call(0x1000); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("iss.CPU.Call steady state allocates %v allocs/op, want 0", avg)
	}
}
