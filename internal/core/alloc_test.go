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
