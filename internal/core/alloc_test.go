package core_test

import (
	"testing"

	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/systems"
)

// TestWarmSWReactionZeroAlloc is the alloc guard of the software side of
// the master: once a run is warm, one more reaction of a software machine
// — its React, the grouping of its memory accesses into bus transfers, its
// fetch trace fed to the I-cache, its ISS call, its RTOS job and its
// delivery — allocates nothing.
func TestWarmSWReactionZeroAlloc(t *testing.T) {
	p := systems.DefaultTCPIP()
	p.Packets = 12
	sys, cfg := systems.TCPIP(p)
	pc := sys.Procs["checksum"]
	pc.Mapping = core.SW
	sys.Procs["checksum"] = pc
	cs, err := core.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Drive(); err != nil {
		t.Fatal(err)
	}

	// A checksum request for slot 0: 48 shared-memory reads, coalesced into
	// DMA blocks, then CHK_RES to ip_check, which is idle and so has no
	// transition to fire.
	ck := sys.Net.MachineIndex("checksum")
	req := sys.Net.Machines[ck].InputIndex("CHK_REQ")
	desc := cfsm.Value(p.PacketBytes)
	react := func() {
		if err := cs.PostAndDrive(ck, req, desc); err != nil {
			t.Fatal(err)
		}
	}
	react()
	iss0, ic0, bus0 := cs.SWCounters()
	const runs = 100
	if avg := testing.AllocsPerRun(runs, react); avg != 0 {
		t.Fatalf("a warm software reaction allocates %v times, want 0", avg)
	}
	iss1, ic1, bus1 := cs.SWCounters()
	// AllocsPerRun calls react once more than runs.
	if iss1-iss0 != runs+1 || ic1-ic0 < runs+1 || bus1-bus0 < runs+1 {
		t.Fatalf("%d reactions made %d ISS calls, %d I-cache accesses, %d bus grants",
			runs+1, iss1-iss0, ic1-ic0, bus1-bus0)
	}
}

// TestWarmHWReactionZeroAlloc is the alloc guard of the hardware side of
// the master: once a run is warm, one more reaction of a hardware machine
// allocates the same few records (its gate execution and the emission it
// reports) whatever its DMA block count. The pump's bus request, block
// buffer and callbacks, and the engine's credit tables, are reused.
func TestWarmHWReactionZeroAlloc(t *testing.T) {
	allocs := map[int]float64{}
	for _, dma := range []int{2, 8, 64} {
		p := systems.DefaultTCPIP()
		p.Packets = 12
		p.DMASize = dma
		sys, cfg := systems.TCPIP(p)
		cs, err := core.New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Drive(); err != nil {
			t.Fatal(err)
		}
		// A checksum request for slot 0: 48 shared-memory reads in
		// ceil(48/dma) DMA blocks, then CHK_RES to ip_check, which is idle
		// and so has no transition to fire.
		ck := sys.Net.MachineIndex("checksum")
		req := sys.Net.Machines[ck].InputIndex("CHK_REQ")
		desc := cfsm.Value(p.PacketBytes)
		react := func() {
			if err := cs.PostAndDrive(ck, req, desc); err != nil {
				t.Fatal(err)
			}
		}
		react()
		allocs[dma] = testing.AllocsPerRun(100, react)
	}
	t.Logf("allocations per warm hardware reaction at DMA 2, 8, 64: %v, %v, %v", allocs[2], allocs[8], allocs[64])
	if allocs[2] != allocs[64] || allocs[8] != allocs[64] || allocs[64] > 4 {
		t.Fatalf("a warm hardware reaction allocates %v times at DMA 2, 8 and 64 (24, 6 and 1 blocks), want the same few",
			[]float64{allocs[2], allocs[8], allocs[64]})
	}
}
