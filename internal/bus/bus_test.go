package bus

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func setup(t *testing.T, mutate func(*Config)) (*sim.Kernel, *Bus) {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, b
}

// grantLog keeps the KindBusTransaction events of a bus's event stream.
type grantLog struct{ grants []telemetry.Event }

func (g *grantLog) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindBusTransaction {
		g.grants = append(g.grants, ev)
	}
}

func (g *grantLog) Close() error { return nil }

// recordGrants attaches a grantLog to b's event stream.
func recordGrants(b *Bus) *grantLog {
	g := &grantLog{}
	b.SetTracer(telemetry.NewTracer(g))
	return g
}

func TestSingleTransferTiming(t *testing.T) {
	k, b := setup(t, func(c *Config) { c.DMASize = 8 })
	var doneAt units.Time = -1
	b.Submit(&Request{Master: 0, Addr: 0x100, Data: []uint32{1, 2, 3, 4}, Write: true,
		Done: func() { doneAt = k.Now() }})
	k.Run()
	// 4 words <= DMA 8: one grant, (2 arb + 4 words) cycles at 40ns.
	want := units.Time(6 * 40)
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	st := b.Stats()
	if st.Grants != 1 || st.Transactions != 1 || st.Words != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDMABlocksReArbitrate(t *testing.T) {
	_, b := setup(t, func(c *Config) { c.DMASize = 2 })
	k := b.kernel
	b.Submit(&Request{Master: 0, Addr: 0, Data: make([]uint32, 8)})
	k.Run()
	st := b.Stats()
	if st.Grants != 4 {
		t.Fatalf("grants = %d, want 4 (8 words / DMA 2)", st.Grants)
	}
	// Each grant pays arbitration: busy = 4*(2+2) cycles.
	if st.BusyCycles != 16 {
		t.Fatalf("busy = %d cycles, want 16", st.BusyCycles)
	}
}

func TestLargerDMAFewerCycles(t *testing.T) {
	run := func(dma int) uint64 {
		_, b := setup(t, func(c *Config) { c.DMASize = dma })
		b.Submit(&Request{Master: 0, Addr: 0, Data: make([]uint32, 64)})
		b.kernel.Run()
		return b.Stats().BusyCycles
	}
	small, large := run(2), run(32)
	if large >= small {
		t.Fatalf("DMA 32 (%d cycles) not cheaper than DMA 2 (%d cycles)", large, small)
	}
}

func TestPriorityArbitration(t *testing.T) {
	k, b := setup(t, func(c *Config) {
		c.DMASize = 2
		c.Priority = map[int]int{1: 0, 2: 1} // master 1 beats master 2
	})
	var order []int
	// Both submitted at t=0; master 2 first in FIFO but lower priority.
	b.Submit(&Request{Master: 2, Addr: 0, Data: make([]uint32, 2),
		Done: func() { order = append(order, 2) }})
	b.Submit(&Request{Master: 1, Addr: 0x40, Data: make([]uint32, 2),
		Done: func() { order = append(order, 1) }})
	k.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	// The first arbitration happened at submit time (bus idle, master 2
	// alone); master 1 wins the second grant... both single-block, so
	// completion order is submission order here. Check grant trace instead.
}

func TestPriorityPreemptsBetweenBlocks(t *testing.T) {
	k, b := setup(t, func(c *Config) {
		c.DMASize = 2
		c.Priority = map[int]int{1: 0, 2: 1}
	})
	log := recordGrants(b)
	var hooked []Grant
	b.OnGrant(func(g Grant) { hooked = append(hooked, g) })
	// Low-priority master grabs the bus with a long transfer, then the
	// high-priority master arrives: it must win the next block boundary.
	b.Submit(&Request{Master: 2, Addr: 0, Data: make([]uint32, 8)})
	k.After(1, func() {
		b.Submit(&Request{Master: 1, Addr: 0x100, Data: make([]uint32, 2)})
	})
	k.Run()
	tr := log.grants
	if len(tr) < 3 {
		t.Fatalf("trace too short: %v", tr)
	}
	if tr[0].Machine != 2 {
		t.Fatalf("first grant to master %d, want 2", tr[0].Machine)
	}
	if tr[1].Machine != 1 {
		t.Fatalf("high-priority master did not preempt at block boundary: %+v", tr)
	}
	// The grant hook sees the same grants, in the same order.
	if len(hooked) != len(tr) {
		t.Fatalf("hook saw %d grants, event stream %d", len(hooked), len(tr))
	}
	for i, g := range hooked {
		if g.Master != tr[i].Machine || g.Words != tr[i].Words || g.Energy != tr[i].Energy {
			t.Fatalf("grant %d: hook %+v, event %+v", i, g, tr[i])
		}
	}
}

func TestPriorityChangesInterleaving(t *testing.T) {
	run := func(prio map[int]int) []int {
		k, b := setup(t, func(c *Config) {
			c.DMASize = 2
			c.Priority = prio
		})
		log := recordGrants(b)
		b.Submit(&Request{Master: 1, Addr: 0, Data: make([]uint32, 4)})
		b.Submit(&Request{Master: 2, Addr: 0x80, Data: make([]uint32, 4)})
		k.Run()
		var seq []int
		for _, g := range log.grants {
			seq = append(seq, g.Machine)
		}
		return seq
	}
	a := run(map[int]int{1: 0, 2: 1})
	c := run(map[int]int{1: 1, 2: 0})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("priority swap did not change grant interleaving: %v", a)
	}
}

func TestSwitchingActivityEnergy(t *testing.T) {
	_, b := setup(t, func(c *Config) {
		c.DMASize = 8
		c.ArbToggle = 0
		c.DataBits = 8
		c.AddrBits = 8
	})
	// First word: addr 0x00, data 0xFF from initial 0 -> 8 data toggles.
	// Second word: addr 0x04 (1 toggle from 0x00... 0x00->0x04 = 1), data
	// 0xFF->0x00 = 8 toggles.
	b.Submit(&Request{Master: 0, Addr: 0, Data: []uint32{0xFF, 0x00}})
	b.kernel.Run()
	st := b.Stats()
	if st.DataToggles != 16 {
		t.Fatalf("data toggles = %d, want 16", st.DataToggles)
	}
	if st.AddrToggles != 1 {
		t.Fatalf("addr toggles = %d, want 1", st.AddrToggles)
	}
	wantE := units.SwitchEnergy(10*units.Picofarad, 3.3, 17)
	if st.Energy != wantE {
		t.Fatalf("energy = %v, want %v", st.Energy, wantE)
	}
}

func TestEnergyDependsOnData(t *testing.T) {
	run := func(data []uint32) units.Energy {
		_, b := setup(t, nil)
		b.Submit(&Request{Master: 0, Addr: 0, Data: data})
		b.kernel.Run()
		return b.Stats().Energy
	}
	quiet := run([]uint32{0, 0, 0, 0})
	noisy := run([]uint32{0xFF, 0x00, 0xFF, 0x00})
	if noisy <= quiet {
		t.Fatalf("alternating data (%v) not costlier than constant (%v)", noisy, quiet)
	}
}

func TestZeroLengthRequestCompletes(t *testing.T) {
	k, b := setup(t, nil)
	done := false
	b.Submit(&Request{Master: 0, Done: func() { done = true }})
	k.Run()
	if !done {
		t.Fatal("zero-length request never completed")
	}
	if b.Stats().Grants != 0 {
		t.Fatal("zero-length request consumed a grant")
	}
}

func TestPerMasterStats(t *testing.T) {
	k, b := setup(t, nil)
	b.Submit(&Request{Master: 3, Addr: 0, Data: []uint32{1, 2}})
	b.Submit(&Request{Master: 5, Addr: 0x40, Data: []uint32{3}})
	k.Run()
	if b.MasterStats(3).Words != 2 {
		t.Fatalf("master 3 stats = %+v", b.MasterStats(3))
	}
	if b.MasterStats(5).Words != 1 {
		t.Fatalf("master 5 stats = %+v", b.MasterStats(5))
	}
	if b.MasterStats(9).Words != 0 {
		t.Fatal("unused master must report zero stats")
	}
	total := b.Stats()
	if total.Words != 3 || total.Transactions != 2 {
		t.Fatalf("total = %+v", total)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.AddrBits = 0 },
		func(c *Config) { c.AddrBits = 40 },
		func(c *Config) { c.DataBits = 0 },
		func(c *Config) { c.DMASize = 0 },
		func(c *Config) { c.Clock = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestBusSerializesOverlappingRequests(t *testing.T) {
	k, b := setup(t, func(c *Config) { c.DMASize = 4 })
	var ends []units.Time
	for m := 0; m < 3; m++ {
		b.Submit(&Request{Master: m, Addr: uint32(m) * 0x100, Data: make([]uint32, 4),
			Done: func() { ends = append(ends, k.Now()) }})
	}
	k.Run()
	if len(ends) != 3 {
		t.Fatalf("completions = %d, want 3", len(ends))
	}
	// Each transfer takes (2+4)=6 cycles * 40ns = 240ns, strictly serialized.
	for i, want := range []units.Time{240, 480, 720} {
		if ends[i] != want {
			t.Fatalf("ends = %v, want [240 480 720]", ends)
		}
	}
}
