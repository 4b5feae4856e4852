// Package repro's root benchmark harness times the paper's Tables 1-2 and
// Figs 1 and 3 under `go test -bench` (compare the Orig and accelerated
// variants of a Table to read off its speedup column), plus microbenchmarks
// for every substrate simulator. cmd/paperrun regenerates every figure and
// table.
//
//	go test -bench=Table1 -benchmem
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/cachesim"
	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/hwsyn"
	"repro/internal/iss"
	"repro/internal/macromodel"
	"repro/internal/sim"
	"repro/internal/sparc"
	"repro/internal/swsyn"
	"repro/internal/systems"
)

// tableDMASizes is the row axis of Tables 1 and 2.
var tableDMASizes = []int{2, 4, 8, 16, 32, 64}

// runTCPIP executes one TCP/IP co-estimation for benchmarking.
func runTCPIP(b *testing.B, dma int, mutate func(*core.Config)) *core.Report {
	b.Helper()
	p := systems.DefaultTCPIP()
	p.Packets = 12
	p.DMASize = dma
	sys, cfg := systems.TCPIP(p)
	if mutate != nil {
		mutate(&cfg)
	}
	cs, err := core.New(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := cs.Run()
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable1Orig is the base framework column of Table 1: full
// co-estimation, every reaction through the ISS / gate-level simulator.
func BenchmarkTable1Orig(b *testing.B) {
	for _, dma := range tableDMASizes {
		b.Run(fmt.Sprintf("DMA%d", dma), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = runTCPIP(b, dma, nil)
			}
			b.ReportMetric(rep.Total.Nanojoules(), "nJ")
			b.ReportMetric(float64(rep.ISSCalls), "ISScalls")
		})
	}
}

// BenchmarkTable1Caching is the accelerated column of Table 1: energy &
// delay caching (§4.2). Speedup = Table1Orig time / Table1Caching time.
func BenchmarkTable1Caching(b *testing.B) {
	for _, dma := range tableDMASizes {
		b.Run(fmt.Sprintf("DMA%d", dma), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = runTCPIP(b, dma, func(cfg *core.Config) {
					cfg.Accel.ECache = true
					cfg.Accel.ECacheParams = ecache.Table1Params()
				})
			}
			b.ReportMetric(rep.Total.Nanojoules(), "nJ")
			b.ReportMetric(float64(rep.ISSCalls), "ISScalls")
		})
	}
}

var (
	benchTableOnce sync.Once
	benchTable     *macromodel.Table
	benchTableErr  error
)

// macroTable characterizes the macro-model once per process; the sync.Once
// keeps the lazy init safe under parallel or otherwise concurrent benchmarks.
func macroTable(b *testing.B) *macromodel.Table {
	b.Helper()
	benchTableOnce.Do(func() {
		benchTable, benchTableErr = macromodel.Characterize(iss.SPARCliteTiming(), iss.SPARCliteModel())
	})
	if benchTableErr != nil {
		b.Fatal(benchTableErr)
	}
	return benchTable
}

// BenchmarkTable2Macromodel is the accelerated column of Table 2: software
// power macro-modeling (§4.1), ISS never invoked.
func BenchmarkTable2Macromodel(b *testing.B) {
	tbl := macroTable(b)
	for _, dma := range tableDMASizes {
		b.Run(fmt.Sprintf("DMA%d", dma), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = runTCPIP(b, dma, func(cfg *core.Config) {
					cfg.Accel.Macromodel = true
					cfg.Accel.MacromodelTable = tbl
				})
			}
			b.ReportMetric(rep.Total.Nanojoules(), "nJ")
			b.ReportMetric(float64(rep.ISSCalls), "ISScalls")
		})
	}
}

// BenchmarkFig1 runs both sides of the motivation experiment.
func BenchmarkFig1(b *testing.B) {
	for _, mode := range []core.Mode{core.CoEstimation, core.Separate} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, cfg := systems.ProdCons(systems.DefaultProdCons())
				cfg.Mode = mode
				cs, err := core.New(sys, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cs.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Characterize is the macro-operation characterization flow.
func BenchmarkFig3Characterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := macromodel.Characterize(iss.SPARCliteTiming(), iss.SPARCliteModel()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutomotive co-estimates the dashboard controller scenario.
func BenchmarkAutomotive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, cfg := systems.Automotive(systems.DefaultAutomotive())
		cs, err := core.New(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cs.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate microbenchmarks ----

// BenchmarkISS measures raw instruction-set simulation speed.
func BenchmarkISS(b *testing.B) {
	a := sparc.NewAsm(0x1000)
	a.Label("entry")
	a.Movi(sparc.O0, 0)
	a.Movi(sparc.O1, 4000)
	a.Label("loop")
	a.Op3(sparc.ADD, sparc.O0, sparc.O0, sparc.O1)
	a.Op3i(sparc.XOR, sparc.O2, sparc.O0, 0x55)
	a.Op3i(sparc.SUBCC, sparc.O1, sparc.O1, 1)
	a.Branch(sparc.BNE, "loop", false)
	a.Nop()
	a.Retl()
	a.Nop()
	prog := a.MustAssemble()
	cpu := iss.New(iss.SPARCliteTiming(), iss.SPARCliteModel(), iss.NewMem())
	cpu.LoadProgram(prog)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		_, st, err := cpu.Call(0x1000)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkGateSim measures the gate-level power simulator on a synthesized
// checksum-style datapath.
func BenchmarkGateSim(b *testing.B) {
	bd := cfsm.NewBuilder("dp")
	s := bd.State("s")
	in := bd.Input("GO")
	acc := bd.Var("ACC", 0)
	i := bd.Var("I", 0)
	bd.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Set(i, cfsm.Const(0)),
		cfsm.Repeat(cfsm.Const(64),
			cfsm.Set(acc, cfsm.Add(bd.V(acc), cfsm.Xor(bd.V(i), cfsm.Const(0xAA)))),
			cfsm.Set(i, cfsm.Add(bd.V(i), cfsm.Const(1))),
		),
	)
	m := bd.MustBuild()
	mod, err := hwsyn.Synthesize(m, hwsyn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	drv := hwsyn.NewDriver(mod, 3.3)
	gates := mod.N.Size().Gates
	b.ResetTimer()
	var cycles uint64
	for k := 0; k < b.N; k++ {
		m.Reset()
		m.Post(0, 0)
		r, _ := m.React(cfsm.NullEnv{})
		st, err := drv.ExecTransition(r, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(gates)/b.Elapsed().Seconds(), "gate-evals/s")
}

// BenchmarkBusModel measures the behavioral bus/arbiter throughput.
func BenchmarkBusModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		bu, err := newBenchBus(k)
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < 4; m++ {
			bu.submitWords(m, 256)
		}
		k.Run()
	}
}

// BenchmarkCacheSim measures the instruction-cache simulator.
func BenchmarkCacheSim(b *testing.B) {
	c := cachesim.MustNew(cachesim.Default8K())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1<<14)) &^ 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restart each pass over the trace from a cold, deterministic cache
		// so iterations are identically distributed regardless of b.N.
		if i%len(addrs) == 0 {
			c.Reset()
		}
		c.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkCFSMReact measures behavioral reaction speed.
func BenchmarkCFSMReact(b *testing.B) {
	bd := cfsm.NewBuilder("m")
	s := bd.State("s")
	in := bd.Input("IN")
	v := bd.Var("V", 0)
	bd.On(s, in).Do(
		cfsm.Set(v, cfsm.Add(bd.V(v), bd.EvVal(in))),
		cfsm.If(cfsm.Gt(bd.V(v), cfsm.Const(1000)),
			cfsm.Block(cfsm.Set(v, cfsm.Const(0))), nil),
	)
	m := bd.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Post(0, cfsm.Value(i&0xFF))
		if _, ok := m.React(cfsm.NullEnv{}); !ok {
			b.Fatal("no reaction")
		}
	}
}

// BenchmarkSWSynCompile measures software synthesis of the TCP/IP partition.
func BenchmarkSWSynCompile(b *testing.B) {
	sys, _ := systems.TCPIP(systems.DefaultTCPIP())
	var sw []*cfsm.CFSM
	for _, m := range sys.Net.Machines {
		if sys.Procs[m.Name].Mapping == core.SW {
			sw = append(sw, m)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swsyn.Compile(sw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHWSynth measures hardware synthesis of the checksum block.
func BenchmarkHWSynth(b *testing.B) {
	sys, cfg := systems.TCPIP(systems.DefaultTCPIP())
	m := sys.Net.Machines[sys.Net.MachineIndex("checksum")]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hwsyn.Synthesize(m, hwsyn.Config{Width: cfg.HWWidth}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBus wraps the bus model for BenchmarkBusModel.
type benchBus struct {
	b *bus.Bus
}

func newBenchBus(k *sim.Kernel) (*benchBus, error) {
	b, err := bus.New(k, bus.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &benchBus{b: b}, nil
}

func (bb *benchBus) submitWords(master, words int) {
	data := make([]uint32, words)
	for i := range data {
		data[i] = uint32(i * 37)
	}
	bb.b.Submit(&bus.Request{Master: master, Addr: uint32(master) << 10, Data: data})
}
