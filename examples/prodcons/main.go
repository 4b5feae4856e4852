// Producer/timer/consumer example — the paper's Fig 1 motivation: run the
// same system through separate per-component estimation and through
// co-estimation, and show how the timing-sensitive consumer is
// under-estimated by the separate flow.
//
//	go run ./examples/prodcons
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/report"
	"repro/pkg/coest"
)

func main() {
	ctx := context.Background()
	sys := coest.ProdCons(coest.DefaultProdConsParams())
	sep, err := coest.Estimate(ctx, sys, coest.WithSeparateEstimation())
	if err != nil {
		log.Fatal(err)
	}
	co, err := coest.Estimate(ctx, sys)
	if err != nil {
		log.Fatal(err)
	}
	sepCons := sep.Machine("consumer").ComputeEnergy
	coCons := co.Machine("consumer").ComputeEnergy

	fmt.Println("Fig 1(b): separate HW/SW estimation vs co-estimation (prodcons)")
	t := report.NewTable("", "producer energy", "consumer energy")
	t.Row("separate", sep.Machine("producer").ComputeEnergy.String(), sepCons.String())
	t.Row("co-est", co.Machine("producer").ComputeEnergy.String(), coCons.String())
	t.Render(os.Stdout)
	fmt.Printf("  consumer under-estimated by %.0f%% (paper: ~62%%)\n\n",
		(1-float64(sepCons)/float64(coCons))*100)

	fmt.Println("why: the consumer's loop count is the number of timer ticks")
	fmt.Println("between packets. Separate estimation captures its input trace")
	fmt.Println("from an untimed behavioral simulation, where the producer's")
	fmt.Println("computation takes zero time - so almost no ticks accumulate")
	fmt.Println("and the consumer looks nearly idle. Co-estimation spaces the")
	fmt.Println("packets by the real ISS-reported computation time.")
	fmt.Printf("\nseparate/co-est consumer ratio: %.2fx under-estimated\n",
		float64(coCons)/float64(sepCons))
}
