package iss

import (
	"testing"

	"repro/internal/sparc"
)

// TestMemCopyFromReusesPages: a memory made equal to another keeps its own
// pages, zeroes what the source lacks, in the dense range and above it, and
// shares no page with the source.
func TestMemCopyFromReusesPages(t *testing.T) {
	const high = 0xFFFF_0000 // beyond densePages: the map-backed range
	src := NewMem()
	src.Write32(0x1000, 0xAABBCCDD)
	src.Write32(high+8, 0x01020304)

	dst := NewMem()
	dst.Write32(0x1004, 7)          // page src has: overwritten
	dst.Write32(0x2F_FFF0, 9)       // page src lacks: zeroed
	dst.Write32(high-0x10_0000, 11) // high page src lacks: zeroed
	kept := dst.page(0x2F_FFF0, false)
	dst.CopyFrom(src)

	for _, c := range []struct{ addr, want uint32 }{
		{0x1000, 0xAABBCCDD}, {0x1004, 0}, {0x2F_FFF0, 0}, {high + 8, 0x01020304}, {high - 0x10_0000, 0},
	} {
		if got := dst.Read32(c.addr); got != c.want {
			t.Errorf("Read32(%#x) = %#x after CopyFrom, want %#x", c.addr, got, c.want)
		}
	}
	if dst.page(0x2F_FFF0, false) != kept {
		t.Error("CopyFrom replaced a page it could reuse")
	}
	dst.Write32(0x1000, 1)
	dst.Write32(high+8, 2)
	if src.Read32(0x1000) != 0xAABBCCDD || src.Read32(high+8) != 0x01020304 {
		t.Error("writes after CopyFrom reached the source's pages")
	}
}

// TestImageRunsLikeLoadProgram: CPUs started from one Image, one of them in
// a memory a previous run dirtied, run like a CPU that loaded the program
// and its data itself, and leave the Image as built.
func TestImageRunsLikeLoadProgram(t *testing.T) {
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Save(-96)
	a.Set32(sparc.L0, 0x10_0000)
	a.Load(sparc.LD, sparc.O0, sparc.L0, 0)
	a.Op3i(sparc.ADD, sparc.O0, sparc.O0, 1)
	a.Store(sparc.ST, sparc.O0, sparc.L0, 0)
	a.Restore()
	a.Retl()
	a.Nop()
	p := a.MustAssemble()
	init := func(m *Mem) { m.Write32(0x10_0000, 41) }
	timing := SPARCliteTiming()

	ref := New(timing, SPARCliteModel(), NewMem())
	ref.LoadProgram(p)
	init(ref.Mem)
	want, wantSt, err := ref.Call(0x1000)
	if err != nil {
		t.Fatal(err)
	}

	img := NewImage(p, timing, init)
	dirty := NewMem()
	dirty.Write32(0x10_0000, 1000)
	dirty.Write32(0x7_0000, 5)
	for i, mem := range []*Mem{NewMem(), dirty} {
		c := New(timing, SPARCliteModel(), mem)
		c.LoadImage(img)
		got, st, err := c.Call(0x1000)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || st != wantSt || c.Mem.Read32(0x7_0000) != 0 {
			t.Fatalf("CPU %d from the image: %d %+v, want %d %+v", i, got, st, want, wantSt)
		}
	}
	if img.mem.Read32(0x10_0000) != 41 {
		t.Fatal("a run wrote through to the image's memory")
	}
}

// TestLoadImageRefusesOtherTiming: an image loads under any timing model
// of the values it was predecoded for, and under no other.
func TestLoadImageRefusesOtherTiming(t *testing.T) {
	img := NewImage(sparc.NewAsm(0x1000).MustAssemble(), SPARCliteTiming(), nil)
	New(SPARCliteTiming(), SPARCliteModel(), NewMem()).LoadImage(img)
	other := SPARCliteTiming()
	other.Windows = 2
	defer func() {
		if recover() == nil {
			t.Fatal("LoadImage under another timing model did not panic")
		}
	}()
	New(other, SPARCliteModel(), NewMem()).LoadImage(img)
}
