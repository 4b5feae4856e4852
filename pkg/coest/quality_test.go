package coest_test

import (
	"context"
	"math"
	"testing"

	"repro/pkg/coest"
)

func qualityTCPIP() coest.TCPIPParams {
	p := coest.DefaultTCPIPParams()
	p.Packets = 8
	return p
}

// TestAttributionReconciles is the acceptance check for attribution: on an
// accelerated TCP/IP run, the component totals must sum to the run's
// reported total within 0.1%.
func TestAttributionReconciles(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(qualityTCPIP()),
		coest.WithEnergyCache(),
		coest.WithAttribution(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attribution == nil {
		t.Fatal("WithAttribution produced no ledger summary")
	}

	var sum float64
	for _, c := range rep.Attribution.Components {
		sum += float64(c.Energy)
	}
	relErr := math.Abs(sum-float64(rep.Total)) / float64(rep.Total)
	if relErr > 0.001 {
		t.Fatalf("ledger components sum to %v vs run total %v (%.4f%% off, want <= 0.1%%)",
			sum, rep.Total, relErr*100)
	}
	if math.Abs(float64(rep.Attribution.Total)-float64(rep.Total))/float64(rep.Total) > 0.001 {
		t.Fatalf("ledger total %v vs run total %v", rep.Attribution.Total, rep.Total)
	}

	if rep.Attribution.PathCount == 0 || len(rep.Attribution.TopPaths) == 0 {
		t.Fatal("no execution paths attributed")
	}
	if len(rep.Attribution.BusMasters) == 0 {
		t.Fatal("no bus masters attributed")
	}
	if len(rep.Attribution.Techniques) == 0 {
		t.Fatal("no costing techniques attributed")
	}
}

// TestAttributionReadsTheBooks: under each acceleration, attribution is the
// report's own accounts. Its total is the report's bit for bit, each
// process row is that process's report, the bus masters add up to the full
// grant stream, and every accrual is one record.
func TestAttributionReadsTheBooks(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []coest.Option
	}{
		{"ecache", []coest.Option{coest.WithEnergyCache()}},
		{"macro", []coest.Option{coest.WithMacroModel()}},
		{"sampling+compaction", []coest.Option{coest.WithSampling(), coest.WithBusCompaction(32, 4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := coest.Estimate(context.Background(), coest.TCPIP(qualityTCPIP()),
				append(tc.opts, coest.WithAttribution())...)
			if err != nil {
				t.Fatal(err)
			}
			a := rep.Attribution
			if a.Total != rep.Total {
				t.Fatalf("attribution total %v, report total %v", a.Total, rep.Total)
			}
			if len(a.Machines) != len(rep.Machines) {
				t.Fatalf("%d process rows for %d processes", len(a.Machines), len(rep.Machines))
			}
			var swReactions uint64
			for _, m := range a.Machines {
				mr := rep.Machines[m.Machine]
				if m.Name != mr.Name || m.Energy != mr.Energy() || m.Wait != mr.WaitEnergy ||
					m.Reactions != mr.Reactions || m.EstimatorCalls != mr.EstimatorCalls {
					t.Fatalf("process row %+v, report %+v", m, mr)
				}
				if !m.HW {
					swReactions += m.Reactions
				}
			}
			var bus float64
			for _, m := range a.BusMasters {
				bus += float64(m.Energy)
			}
			if full := float64(rep.BusStats.Energy); math.Abs(bus-full) > 1e-12*full {
				t.Fatalf("bus masters add up to %g J, the grant stream to %g J", bus, full)
			}
			for _, c := range a.Components {
				if c.Name == "bus" && c.Energy != rep.BusEnergy {
					t.Fatalf("bus component %v, report %v", c.Energy, rep.BusEnergy)
				}
			}
			if (rep.BusCompaction != nil) != (tc.name == "sampling+compaction") {
				t.Fatalf("bus compaction report %v", rep.BusCompaction)
			}
			// One record per technique accrual, per software reaction's
			// I-cache feed and for the RTOS overhead.
			records := swReactions + 1
			for _, c := range a.Techniques {
				records += c.Count
			}
			if a.Events != records {
				t.Fatalf("%d records, want %d", a.Events, records)
			}
		})
	}
}

// TestAttributionOffByDefault: without the option, the report carries no
// ledger and no audit record.
func TestAttributionOffByDefault(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithEnergyCache())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attribution != nil || rep.Audit != nil {
		t.Fatal("observability attached without being requested")
	}
	// The error budget, by contrast, is derived from state the acceleration
	// keeps anyway and is always attached when an acceleration ran.
	if rep.Budget == nil {
		t.Fatal("accelerated run carries no error budget")
	}
}

// TestShadowAuditRecords is the acceptance check for the shadow-sampling
// auditor: with auditing on over an energy-cached TCP/IP run, the report
// carries per-technique divergence statistics.
func TestShadowAuditRecords(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(qualityTCPIP()),
		coest.WithEnergyCache(),
		coest.WithShadowAudit(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit == nil {
		t.Fatal("WithShadowAudit produced no audit report")
	}
	if rep.Audit.Audits == 0 {
		t.Fatal("cache-accelerated run at rate 0.5 audited nothing")
	}
	if len(rep.Audit.Techniques) == 0 {
		t.Fatal("no per-technique divergence stats")
	}
	for _, ts := range rep.Audit.Techniques {
		if ts.Audited == 0 {
			t.Fatalf("empty technique row: %+v", ts)
		}
		if math.IsNaN(ts.MeanRel) || ts.MeanRel < 0 {
			t.Fatalf("bad divergence stats: %+v", ts)
		}
	}
	if rep.Audit.Rate != 0.5 {
		t.Fatalf("rate = %v", rep.Audit.Rate)
	}
}

// TestShadowAuditDoesNotChangeSWEstimate: the SW shadow replays the exact
// reference computation and folds it back as an extra cache observation of
// identical value, so an audited run's software energy must match the
// unaudited run (data-independent SW paths cache exactly).
func TestShadowAuditDeterministic(t *testing.T) {
	run := func() *coest.Report {
		rep, err := coest.Estimate(context.Background(), coest.TCPIP(qualityTCPIP()),
			coest.WithEnergyCache(),
			coest.WithShadowAudit(0.25),
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Total != b.Total {
		t.Fatalf("audited runs not reproducible: %v vs %v", a.Total, b.Total)
	}
	if a.Audit.Audits != b.Audit.Audits {
		t.Fatalf("audit counts differ: %d vs %d", a.Audit.Audits, b.Audit.Audits)
	}
}

// TestErrorBudgetAttachedForAccelerations: every acceleration technique
// contributes a budget row when it served anything.
func TestErrorBudgetRows(t *testing.T) {
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(qualityTCPIP()),
		coest.WithEnergyCache(),
		coest.WithBusCompaction(8, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Budget == nil {
		t.Fatal("no budget on an accelerated run")
	}
	names := map[string]bool{}
	for _, tb := range rep.Budget.Techniques {
		names[tb.Name] = true
	}
	if !names["compaction"] {
		t.Fatalf("compaction missing from budget: %+v", rep.Budget.Techniques)
	}
	if !names["ecache-sw"] && !names["ecache-hw"] {
		t.Fatalf("energy cache missing from budget: %+v", rep.Budget.Techniques)
	}
	if rep.Budget.Bound < 0 || rep.Budget.CI95 < 0 {
		t.Fatalf("negative bounds: %+v", rep.Budget)
	}

	// An unaccelerated run has no error to budget.
	base, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	if base.Budget != nil {
		t.Fatalf("unaccelerated run carries a budget: %+v", base.Budget)
	}
}

// TestMacroBudgetUncalibratedWithoutShadow: macro-modeling exposes no error
// signal of its own, so its budget must be flagged uncalibrated until shadow
// auditing provides reference residuals.
func TestMacroBudgetCalibration(t *testing.T) {
	ctx := context.Background()
	sys := coest.TCPIP(quickTCPIP())

	plain, err := coest.Estimate(ctx, sys, coest.WithMacroModel())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Budget == nil || !plain.Budget.Uncalibrated {
		t.Fatalf("macro budget without audits must be uncalibrated: %+v", plain.Budget)
	}

	audited, err := coest.Estimate(ctx, sys, coest.WithMacroModel(), coest.WithShadowAudit(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if audited.Budget == nil {
		t.Fatal("no budget")
	}
	for _, tb := range audited.Budget.Techniques {
		if tb.Name == "macro" && !tb.Calibrated {
			t.Fatalf("macro budget not calibrated by shadow audits: %+v", tb)
		}
	}
}

// TestShadowInvalidOptions: rates outside (0, 1] fail compilation.
func TestShadowInvalidRate(t *testing.T) {
	_, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithShadowAudit(1.5))
	if err == nil {
		t.Fatal("rate 1.5 accepted")
	}
}
