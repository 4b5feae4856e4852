package iss

import (
	"testing"

	"repro/internal/sparc"
)

// Execute a call into an iterative factorial — end-to-end through the
// assembler, encoder and simulator.
func TestAssembledProgramExecutes(t *testing.T) {
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Save(-96)
	a.Movi(sparc.O0, 10)
	a.Call("fact")
	a.Nop()
	a.Mov(sparc.I0, sparc.O0)
	a.Ret()
	a.Restore()

	// Iterative factorial mod 2^32.
	a.Label("fact")
	a.Movi(sparc.O1, 1)
	a.Label("floop")
	a.Op3i(sparc.SUBCC, sparc.G0, sparc.O0, 1) // cmp %o0, 1
	a.Branch(sparc.BLE, "fdone", false)
	a.Nop()
	a.Op3(sparc.SMUL, sparc.O1, sparc.O1, sparc.O0)
	a.Branch(sparc.BA, "floop", false)
	a.Op3i(sparc.SUB, sparc.O0, sparc.O0, 1)
	a.Label("fdone")
	a.Mov(sparc.O0, sparc.O1)
	a.Retl()
	a.Nop()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
	c.LoadProgram(p)
	ret, st, err := c.Call(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 3628800 {
		t.Fatalf("10! = %d, want 3628800", ret)
	}
	if st.Insts < 40 {
		t.Fatalf("suspiciously few instructions: %d", st.Insts)
	}
}

func TestRegAccessors(t *testing.T) {
	c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
	c.SetReg(sparc.G3, 0xABCD)
	if c.Reg(sparc.G3) != 0xABCD {
		t.Fatal("global register accessor")
	}
	c.SetReg(sparc.L5, 7)
	if c.Reg(sparc.L5) != 7 {
		t.Fatal("local register accessor")
	}
	c.SetReg(sparc.I2, 9)
	if c.Reg(sparc.I2) != 9 {
		t.Fatal("in register accessor")
	}
	c.SetReg(sparc.G0, 42)
	if c.Reg(sparc.G0) != 0 {
		t.Fatal("g0 must stay zero")
	}
	if c.PC() != 0 {
		t.Fatal("reset PC")
	}
}

func TestRestoreUnderflowErrors(t *testing.T) {
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Restore() // no matching save
	a.Retl()
	a.Nop()
	c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
	c.LoadProgram(a.MustAssemble())
	if _, _, err := c.Call(0x1000); err == nil {
		t.Fatal("restore without save must error")
	}
}

func TestMisalignedStores(t *testing.T) {
	cases := []struct {
		op  sparc.Op
		off int32
	}{
		{sparc.ST, 2},
		{sparc.STH, 1},
		{sparc.LDUH, 1},
	}
	for _, cse := range cases {
		a := sparc.NewAsm(0x1000)
		a.Label("entry")
		a.Set32(sparc.O1, 0x8000)
		if sparc.IsStore(cse.op) {
			a.Store(cse.op, sparc.O0, sparc.O1, cse.off)
		} else {
			a.Load(cse.op, sparc.O0, sparc.O1, cse.off)
		}
		a.Retl()
		a.Nop()
		c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
		c.LoadProgram(a.MustAssemble())
		if _, _, err := c.Call(0x1000); err == nil {
			t.Fatalf("%v at misaligned offset %d must error", cse.op, cse.off)
		}
	}
}

func TestConditionCodeMatrix(t *testing.T) {
	// For a grid of (a, b) pairs, each branch condition must agree with the
	// Go-level comparison after subcc a, b.
	type cond struct {
		op   sparc.Op
		want func(a, b int32) bool
	}
	conds := []cond{
		{sparc.BE, func(a, b int32) bool { return a == b }},
		{sparc.BNE, func(a, b int32) bool { return a != b }},
		{sparc.BL, func(a, b int32) bool { return a < b }},
		{sparc.BLE, func(a, b int32) bool { return a <= b }},
		{sparc.BG, func(a, b int32) bool { return a > b }},
		{sparc.BGE, func(a, b int32) bool { return a >= b }},
		{sparc.BCS, func(a, b int32) bool { return uint32(a) < uint32(b) }},
		{sparc.BCC, func(a, b int32) bool { return uint32(a) >= uint32(b) }},
		{sparc.BGU, func(a, b int32) bool { return uint32(a) > uint32(b) }},
		{sparc.BLEU, func(a, b int32) bool { return uint32(a) <= uint32(b) }},
		{sparc.BNEG, func(a, b int32) bool { return a-b < 0 }},
		{sparc.BPOS, func(a, b int32) bool { return a-b >= 0 }},
	}
	vals := []int32{0, 1, -1, 5, -5, 1 << 30, -(1 << 30), 0x7FFFFFFF, -0x80000000}
	for _, cn := range conds {
		a := sparc.NewAsm(0x1000)
		a.Label("entry")
		a.Op3(sparc.SUBCC, sparc.G0, sparc.O0, sparc.O1)
		a.Branch(cn.op, "yes", false)
		a.Nop()
		a.Movi(sparc.O0, 0)
		a.Retl()
		a.Nop()
		a.Label("yes")
		a.Movi(sparc.O0, 1)
		a.Retl()
		a.Nop()
		p := a.MustAssemble()
		c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
		c.LoadProgram(p)
		for _, x := range vals {
			for _, y := range vals {
				ret, _, err := c.Call(0x1000, uint32(x), uint32(y))
				if err != nil {
					t.Fatal(err)
				}
				want := uint32(0)
				if cn.want(x, y) {
					want = 1
				}
				if ret != want {
					t.Fatalf("%v after subcc(%d,%d): got %d want %d", cn.op, x, y, ret, want)
				}
			}
		}
	}
}

func TestOverflowBranchSemantics(t *testing.T) {
	// BL uses N^V: the overflow case (INT_MIN - 1) must still order
	// correctly, which naive N-checking would get wrong.
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Op3(sparc.SUBCC, sparc.G0, sparc.O0, sparc.O1)
	a.Branch(sparc.BL, "yes", false)
	a.Nop()
	a.Movi(sparc.O0, 0)
	a.Retl()
	a.Nop()
	a.Label("yes")
	a.Movi(sparc.O0, 1)
	a.Retl()
	a.Nop()
	c := New(SPARCliteTiming(), SPARCliteModel(), NewMem())
	c.LoadProgram(a.MustAssemble())
	// INT_MIN < 1 is true; INT_MIN - 1 overflows positive.
	ret, _, err := c.Call(0x1000, 0x80000000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 1 {
		t.Fatal("INT_MIN < 1 must be true despite overflow")
	}
}
