package systems

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/units"
)

// Shared-memory layout of the TCP/IP subsystem (word addresses).
const (
	NetBufBase  = 0x040 // staging buffer the network interface fills
	PktBufBase  = 0x080 // four 64-word packet slots
	PktSlotSize = 0x040
	QueueBase   = 0x300 // 16-entry descriptor ring
)

// TCPIPParams sizes and shapes the Fig 5 system.
type TCPIPParams struct {
	Packets     int
	PacketBytes int // payload bytes per packet (max 62)
	// Spacing between packet arrivals from the network.
	Arrival units.Time
	// CorruptEvery injects a bad checksum into every Nth packet (0 = never),
	// exercising the error path (useful path diversity for Fig 4).
	CorruptEvery int
	// PriorityPerm selects one of the 6 orderings of the three bus masters
	// (create_pack, ip_check, checksum), 0..5 — the Fig 7 priority axis.
	PriorityPerm int
	// DMASize is the bus DMA block size — the Tables 1-2 / Fig 7 axis.
	DMASize int
	// Seed drives the deterministic payload generator.
	Seed uint32
}

// DefaultTCPIP matches the scale of the paper's experiments (a handful of
// packets through the checksum pipeline).
func DefaultTCPIP() TCPIPParams {
	return TCPIPParams{
		Packets:      3,
		PacketBytes:  48,
		Arrival:      70 * units.Microsecond,
		CorruptEvery: 5,
		PriorityPerm: 0,
		DMASize:      4,
		Seed:         1,
	}
}

// masterPerms are the 6 priority orderings of Fig 7, highest first.
var masterPerms = [6][3]string{
	{"create_pack", "ip_check", "checksum"},
	{"create_pack", "checksum", "ip_check"},
	{"ip_check", "create_pack", "checksum"},
	{"ip_check", "checksum", "create_pack"},
	{"checksum", "create_pack", "ip_check"},
	{"checksum", "ip_check", "create_pack"},
}

// PriorityPermName names a Fig 7 priority assignment.
func PriorityPermName(perm int) string {
	p := masterPerms[perm%6]
	return fmt.Sprintf("%s>%s>%s", p[0], p[1], p[2])
}

// TCPIP builds the network-interface checksum subsystem of Fig 5.
func TCPIP(p TCPIPParams) (*core.System, core.Config) {
	sys := TCPIPNet(p)
	sys.Procs = TCPIPProcs(p.PriorityPerm)
	return sys, TCPIPConfig(p)
}

// TCPIPNet builds the subsystem's network and packet arrivals, without its
// partition: the part of the system that does not change along the
// priority and DMA axes of Fig 7.
func TCPIPNet(p TCPIPParams) *core.System {
	if p.PacketBytes <= 0 || p.PacketBytes > 62 {
		panic(fmt.Sprintf("systems: packet bytes %d out of range (1..62)", p.PacketBytes))
	}

	// create_pack (SW): copies the arrived packet (header word + payload)
	// from the staging buffer into the next packet slot — programmed I/O
	// over the shared bus — then enqueues the descriptor.
	cpb := cfsm.NewBuilder("create_pack")
	cps := cpb.State("idle")
	cpIn := cpb.Input("PKT_IN") // value = payload length in bytes
	cpOut := cpb.Output("PKT_RDY")
	cpSlot := cpb.Var("SLOT", 0)
	cpI := cpb.Var("I", 0)
	cpDst := cpb.Var("DST", 0)
	cpT := make([]int, 8)
	for i := range cpT {
		cpT[i] = cpb.Var(fmt.Sprintf("T%d", i), 0)
	}
	// The copy proceeds in 8-word bursts (NIC transfers are padded to the
	// burst boundary): eight consecutive reads then eight consecutive
	// writes, so the transfers coalesce into DMA blocks on the bus.
	var burst []cfsm.Stmt
	for i := range cpT {
		burst = append(burst, cfsm.MemRead(cpT[i],
			cfsm.Add(cfsm.Const(NetBufBase), cfsm.Add(cpb.V(cpI), cfsm.Const(cfsm.Value(i))))))
	}
	for i := range cpT {
		burst = append(burst, cfsm.MemWrite(
			cfsm.Add(cpb.V(cpDst), cfsm.Add(cpb.V(cpI), cfsm.Const(cfsm.Value(i)))),
			cpb.V(cpT[i])))
	}
	burst = append(burst, cfsm.Set(cpI, cfsm.Add(cpb.V(cpI), cfsm.Const(8))))
	cpb.On(cps, cpIn).Named("copy").Do(
		cfsm.Set(cpDst, cfsm.Add(cfsm.Const(PktBufBase),
			cfsm.Fn(cfsm.ASHL, cpb.V(cpSlot), cfsm.Const(6)))),
		cfsm.Set(cpI, cfsm.Const(0)),
		// ceil((len+1)/8) bursts cover the header word plus the payload.
		cfsm.Repeat(cfsm.Fn(cfsm.ASHR, cfsm.Add(cpb.EvVal(cpIn), cfsm.Const(8)), cfsm.Const(3)),
			burst...,
		),
		// Descriptor: slot in bits 8.., length in bits 0..7.
		cfsm.Emit(cpOut, cfsm.Add(cfsm.Fn(cfsm.ASHL, cpb.V(cpSlot), cfsm.Const(8)),
			cpb.EvVal(cpIn))),
		cfsm.Set(cpSlot, cfsm.And(cfsm.Add(cpb.V(cpSlot), cfsm.Const(1)), cfsm.Const(3))),
	)
	createPack := cpb.MustBuild()

	// packet_queue (SW): descriptor ring between create_pack and ip_check.
	qb := cfsm.NewBuilder("packet_queue")
	qs := qb.State("run")
	qIn := qb.Input("PKT_RDY")
	qDone := qb.Input("DONE")
	qOut := qb.Output("NEXT_PKT")
	qDepth := qb.Var("DEPTH", 0)
	qHead := qb.Var("HEAD", 0)
	qTail := qb.Var("TAIL", 0)
	qTmp := qb.Var("TMP", 0)
	qb.On(qs, qIn).Named("enqueue").Do(
		cfsm.MemWrite(cfsm.Add(cfsm.Const(QueueBase), cfsm.And(qb.V(qTail), cfsm.Const(15))),
			qb.EvVal(qIn)),
		cfsm.Set(qTail, cfsm.Add(qb.V(qTail), cfsm.Const(1))),
		cfsm.Set(qDepth, cfsm.Add(qb.V(qDepth), cfsm.Const(1))),
		cfsm.If(cfsm.Eq(qb.V(qDepth), cfsm.Const(1)),
			cfsm.Block(
				cfsm.MemRead(qTmp, cfsm.Add(cfsm.Const(QueueBase), cfsm.And(qb.V(qHead), cfsm.Const(15)))),
				cfsm.Emit(qOut, qb.V(qTmp)),
			),
			nil),
	)
	qb.On(qs, qDone).Named("dequeue").Do(
		cfsm.Set(qDepth, cfsm.Sub(qb.V(qDepth), cfsm.Const(1))),
		cfsm.Set(qHead, cfsm.Add(qb.V(qHead), cfsm.Const(1))),
		cfsm.If(cfsm.Gt(qb.V(qDepth), cfsm.Const(0)),
			cfsm.Block(
				cfsm.MemRead(qTmp, cfsm.Add(cfsm.Const(QueueBase), cfsm.And(qb.V(qHead), cfsm.Const(15)))),
				cfsm.Emit(qOut, qb.V(qTmp)),
			),
			nil),
	)
	queue := qb.MustBuild()

	// ip_check (SW): fetches the transmitted checksum from the header,
	// zeroes the header field, requests the HW checksum, compares.
	ib := cfsm.NewBuilder("ip_check")
	iIdle := ib.State("idle")
	iWait := ib.State("wait")
	iNext := ib.Input("NEXT_PKT")
	iRes := ib.Input("CHK_RES")
	iReq := ib.Output("CHK_REQ")
	iOK := ib.Output("PKT_OK")
	iErr := ib.Output("PKT_ERR")
	iDone := ib.Output("DONE")
	iExp := ib.Var("EXPECTED", 0)
	iDesc := ib.Var("DESC", 0)
	iBase := ib.Var("BASE", 0)
	ib.On(iIdle, iNext).Named("prepare").Do(
		cfsm.Set(iDesc, ib.EvVal(iNext)),
		cfsm.Set(iBase, cfsm.Add(cfsm.Const(PktBufBase),
			cfsm.Fn(cfsm.ASHL, cfsm.Fn(cfsm.ASHR, ib.V(iDesc), cfsm.Const(8)), cfsm.Const(6)))),
		cfsm.MemRead(iExp, ib.V(iBase)),
		// Overwrite the checksum field with 0 before computing (paper §5.1).
		cfsm.MemWrite(ib.V(iBase), cfsm.Const(0)),
		cfsm.Emit(iReq, ib.V(iDesc)),
	).Goto(iWait)
	ib.On(iWait, iRes).Named("verify").Do(
		cfsm.If(cfsm.Eq(ib.EvVal(iRes), ib.V(iExp)),
			cfsm.Block(cfsm.Emit(iOK, ib.V(iDesc))),
			cfsm.Block(cfsm.Emit(iErr, ib.V(iDesc)))),
		cfsm.Emit(iDone, nil),
	).Goto(iIdle)
	ipCheck := ib.MustBuild()

	// checksum (HW): ones-complement 16-bit accumulation over the packet
	// body, fetched from shared memory through the arbiter in DMA blocks.
	kb := cfsm.NewBuilder("checksum")
	ks := kb.State("run")
	kReq := kb.Input("CHK_REQ")
	kRes := kb.Output("CHK_RES")
	kAcc := kb.Var("ACC", 0)
	kI := kb.Var("I", 0)
	kW := kb.Var("W", 0)
	kBase := kb.Var("BASE", 0)
	kb.On(ks, kReq).Named("sum").Do(
		cfsm.Set(kBase, cfsm.Add(cfsm.Const(PktBufBase),
			cfsm.Fn(cfsm.ASHL, cfsm.Fn(cfsm.ASHR, kb.EvVal(kReq), cfsm.Const(8)), cfsm.Const(6)))),
		cfsm.Set(kAcc, cfsm.Const(0)),
		cfsm.Set(kI, cfsm.Const(1)),
		cfsm.Repeat(cfsm.And(kb.EvVal(kReq), cfsm.Const(0xFF)),
			cfsm.MemRead(kW, cfsm.Add(kb.V(kBase), kb.V(kI))),
			cfsm.Set(kAcc, cfsm.Add(kb.V(kAcc), kb.V(kW))),
			cfsm.If(cfsm.Gt(kb.V(kAcc), cfsm.Const(0xFFFF)),
				cfsm.Block(cfsm.Set(kAcc,
					cfsm.Add(cfsm.And(kb.V(kAcc), cfsm.Const(0xFFFF)), cfsm.Const(1)))),
				nil),
			cfsm.Set(kI, cfsm.Add(kb.V(kI), cfsm.Const(1))),
		),
		cfsm.Emit(kRes, kb.V(kAcc)),
	)
	checksum := kb.MustBuild()

	net := cfsm.NewNet()
	net.Add(createPack)
	net.Add(queue)
	net.Add(ipCheck)
	net.Add(checksum)
	net.ConnectByName("create_pack", "PKT_RDY", "packet_queue", "PKT_RDY")
	net.ConnectByName("packet_queue", "NEXT_PKT", "ip_check", "NEXT_PKT")
	net.ConnectByName("ip_check", "CHK_REQ", "checksum", "CHK_REQ")
	net.ConnectByName("checksum", "CHK_RES", "ip_check", "CHK_RES")
	net.ConnectByName("ip_check", "DONE", "packet_queue", "DONE")
	net.EnvInputByName("PKT_IN", "create_pack", "PKT_IN")
	net.EnvOutput("PKT_OK", net.MachineIndex("ip_check"), ipCheck.OutputIndex("PKT_OK"))
	net.EnvOutput("PKT_ERR", net.MachineIndex("ip_check"), ipCheck.OutputIndex("PKT_ERR"))

	sys := &core.System{Name: "tcpip", Net: net}

	// Packet arrivals: the network interface fills the staging buffer, then
	// signals PKT_IN with the payload length.
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	for k := 0; k < p.Packets; k++ {
		k := k
		payload, sum := makePacket(&seed, p.PacketBytes)
		if p.CorruptEvery > 0 && (k+1)%p.CorruptEvery == 0 {
			sum ^= 0x1 // inject a checksum error
		}
		header := sum
		sys.Stimuli = append(sys.Stimuli, core.Stimulus{
			At:    units.Time(k+1) * p.Arrival,
			Input: "PKT_IN",
			Value: cfsm.Value(p.PacketBytes),
			Do: func(mem *core.SharedMemory) {
				mem.Poke(NetBufBase, cfsm.Value(header))
				for i, b := range payload {
					mem.Poke(NetBufBase+1+uint32(i), cfsm.Value(b))
				}
				_ = k
			},
		})
	}
	return sys
}

// TCPIPProcs is the subsystem's partition, with the bus-master and RTOS
// priorities of priority permutation perm.
func TCPIPProcs(perm int) map[string]core.ProcessConfig {
	prio := map[string]int{}
	for rank, name := range masterPerms[perm%6] {
		prio[name] = rank + 1
	}
	return map[string]core.ProcessConfig{
		"create_pack": {Mapping: core.SW, Priority: prio["create_pack"]},
		// The queue's reactions are cheap bookkeeping; it runs at top
		// RTOS priority so descriptors are consumed before the next
		// copy job can overwrite its single-place event buffer.
		"packet_queue": {Mapping: core.SW, Priority: 0},
		"ip_check":     {Mapping: core.SW, Priority: prio["ip_check"]},
		"checksum":     {Mapping: core.HW, Priority: prio["checksum"]},
	}
}

// TCPIPConfig is the subsystem's run configuration under p: its datapath
// width, its bus, the DMA block size and the observation window.
func TCPIPConfig(p TCPIPParams) core.Config {
	cfg := core.DefaultConfig()
	cfg.HWWidth = 18 // checksum accumulator needs 17 bits
	// Fig 7 parameters: the data bus is 8 bits wide, so each 32-bit word is
	// a 4-cycle byte-serial transfer, over a 12.5 MHz integration bus. This
	// puts the bus on the critical path during packet bursts, which is what
	// makes the priority/DMA design space of §5.3 meaningful.
	cfg.Bus.WordCycles = 4
	cfg.Bus.Clock = 12.5e6
	cfg.Bus.DMASize = p.DMASize
	if cfg.Bus.DMASize <= 0 {
		cfg.Bus.DMASize = 4
	}
	cfg.MaxSimTime = units.Time(p.Packets+8)*p.Arrival + 4*units.Millisecond
	return cfg
}

// makePacket generates a deterministic pseudo-random payload and its
// ones-complement 16-bit checksum.
func makePacket(seed *uint32, n int) ([]uint8, int32) {
	payload := make([]uint8, n)
	var acc uint32
	for i := range payload {
		*seed = *seed*1664525 + 1013904223
		payload[i] = uint8(*seed >> 24)
		acc += uint32(payload[i])
		if acc > 0xFFFF {
			acc = (acc & 0xFFFF) + 1
		}
	}
	return payload, int32(acc)
}
