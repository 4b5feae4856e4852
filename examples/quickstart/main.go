// Quickstart: define a tiny two-process system (a software pulse counter
// and a hardware alarm), partition it, and run power co-estimation through
// the public pkg/coest API.
//
//	go run ./examples/quickstart
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cfsm"
	"repro/internal/units"
	"repro/pkg/coest"
)

func main() {
	// 1. Describe the behavior as CFSMs (the POLIS-style system spec).

	// counter (software): counts PULSE events; every 10th, notify ALERT.
	cb := cfsm.NewBuilder("counter")
	cs := cb.State("run")
	pulse := cb.Input("PULSE")
	alert := cb.Output("ALERT")
	n := cb.Var("N", 0)
	cb.On(cs, pulse).Do(
		cfsm.Set(n, cfsm.Add(cb.V(n), cfsm.Const(1))),
		cfsm.If(cfsm.Ge(cb.V(n), cfsm.Const(10)),
			cfsm.Block(
				cfsm.Emit(alert, cb.V(n)),
				cfsm.Set(n, cfsm.Const(0)),
			),
			nil),
	)
	counter := cb.MustBuild()

	// alarm (hardware): latches the worst alert level seen and raises LED.
	ab := cfsm.NewBuilder("alarm")
	as := ab.State("run")
	in := ab.Input("ALERT")
	led := ab.Output("LED")
	worst := ab.Var("WORST", 0)
	ab.On(as, in).Do(
		cfsm.Set(worst, cfsm.Fn(cfsm.AMAX, ab.V(worst), ab.EvVal(in))),
		cfsm.Emit(led, ab.V(worst)),
	)
	alarm := ab.MustBuild()

	// 2. Wire the network and the environment boundary.
	net := cfsm.NewNet()
	net.Add(counter)
	net.Add(alarm)
	net.ConnectByName("counter", "ALERT", "alarm", "ALERT")
	net.EnvInputByName("PULSE", "counter", "PULSE")
	net.EnvOutput("LED", net.MachineIndex("alarm"), alarm.OutputIndex("LED"))

	// 3. Partition: counter on the embedded SPARC, alarm as an ASIC.
	sys := coest.New(&coest.Spec{
		Name: "quickstart",
		Net:  net,
		Procs: map[string]coest.ProcessConfig{
			"counter": {Mapping: coest.SW, Priority: 1},
			"alarm":   {Mapping: coest.HW, Priority: 2},
		},
		Periodic: []coest.PeriodicStimulus{
			{Input: "PULSE", Period: 5 * units.Microsecond, Count: 100},
		},
	})

	// 4. Co-estimate: the DE master drives the ISS for the counter and the
	// gate-level simulator for the synthesized alarm netlist. The typed
	// event stream goes to a JSONL trace file.
	tf, err := os.Create("quickstart-trace.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	bw := bufio.NewWriter(tf)
	sink := coest.NewJSONLTraceSink(bw)
	rep, err := coest.Estimate(context.Background(), sys,
		coest.WithMaxSimTime(600*time.Microsecond),
		coest.WithTraceSink(sink))
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Print(rep)
	fmt.Printf("\nLED events seen by the environment: %d\n", len(rep.EnvEvents))
	for _, e := range rep.EnvEvents[:min(3, len(rep.EnvEvents))] {
		fmt.Printf("  %v LED=%d\n", e.Time, e.Value)
	}
	fmt.Printf("\ntyped event trace written to quickstart-trace.jsonl\n")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
