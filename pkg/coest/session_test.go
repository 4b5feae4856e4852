package coest_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/coest"
)

func synthesisCounters() (sw, hw, gate, macro *telemetry.Counter) {
	return telemetry.Default.Counter("coest_sw_compiles_total", ""),
		telemetry.Default.Counter("coest_hw_syntheses_total", ""),
		telemetry.Default.Counter("coest_gate_compiles_total", ""),
		telemetry.Default.Counter("coest_macro_characterizations_total", "")
}

// TestSessionWarmBitIdentical is the warm-path acceptance test: repeat
// estimations on a Session perform zero recompilation, resynthesis, gate
// netlist compilation or recharacterization (asserted through the telemetry
// counters) and return energies bit-identical to a cold Estimate of the
// same configuration.
func TestSessionWarmBitIdentical(t *testing.T) {
	ctx := context.Background()
	cold, err := coest.Estimate(ctx, coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}

	sess, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	sw, hw, gate, macro := synthesisCounters()
	sw0, hw0, gate0, macro0 := sw.Value(), hw.Value(), gate.Value(), macro.Value()

	for i := 0; i < 3; i++ {
		warm, err := sess.Estimate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *cold, *warm
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("warm run %d differs from cold estimate:\ncold: %+v\nwarm: %+v", i, a, b)
		}
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || gate.Value() != gate0 || macro.Value() != macro0 {
		t.Fatalf("warm runs resynthesized: sw %d→%d, hw %d→%d, gate %d→%d, macro %d→%d",
			sw0, sw.Value(), hw0, hw.Value(), gate0, gate.Value(), macro0, macro.Value())
	}

	// Per-run config refinements stay available on the warm path.
	dma, err := sess.Estimate(ctx, coest.WithDMASize(64))
	if err != nil {
		t.Fatal(err)
	}
	if dma.Total == cold.Total {
		t.Fatal("per-run WithDMASize must change the estimate")
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || gate.Value() != gate0 {
		t.Fatal("per-run options must not trigger recompilation")
	}
}

// TestSessionECacheWarmth: with a persistent session energy cache, a repeat
// request is served from paths characterized by the first one — fewer real
// ISS invocations, more cache hits.
func TestSessionECacheWarmth(t *testing.T) {
	sess, err := coest.NewSession(coest.TCPIP(quickTCPIP()), coest.WithEnergyCache())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.ISSCalls >= first.ISSCalls {
		t.Fatalf("warm cache run made %d ISS calls, first made %d", second.ISSCalls, first.ISSCalls)
	}
	if second.SWECache.Hits <= first.SWECache.Hits {
		t.Fatalf("warm run hits %d not above cold run hits %d", second.SWECache.Hits, first.SWECache.Hits)
	}
}

// TestSystemConcurrentEstimate enforces the new concurrency contract: one
// System value may be estimated from many goroutines at once (run under
// -race in tier-1).
func TestSystemConcurrentEstimate(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	base, err := coest.Estimate(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	totals := make([]string, 6)
	errs := make([]error, 6)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := coest.Estimate(context.Background(), sys)
			if err != nil {
				errs[i] = err
				return
			}
			totals[i] = rep.Total.String()
		}(i)
	}
	wg.Wait()
	for i := range totals {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if totals[i] != base.Total.String() {
			t.Fatalf("goroutine %d: %s != %s", i, totals[i], base.Total)
		}
	}
}

// TestSessionConcurrentEstimate: the same contract on the warm path, where
// goroutines share compiled artifacts, the ISS boot image, the pool of
// recycled ISS memories and I-caches and, with WithEnergyCache, the
// persistent energy cache. Without the energy cache every concurrent run
// must still equal a cold Estimate bit for bit.
func TestSessionConcurrentEstimate(t *testing.T) {
	cold, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]coest.Option{{coest.WithEnergyCache()}, nil} {
		sess, err := coest.NewSession(coest.TCPIP(quickTCPIP()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 6)
		reps := make([]*coest.Report, len(errs))
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = sess.Estimate(context.Background())
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if opts == nil && reps[i].Total != cold.Total {
				t.Fatalf("concurrent warm run %d: total %v, cold run %v", i, reps[i].Total, cold.Total)
			}
		}
	}
}

// TestEstimateCancellation pins the two halves of the deadline contract:
// wall-clock context limits surface as context errors, the simulated-time
// WithDeadline as ErrSimTimeExceeded — never crossed.
func TestEstimateCancellation(t *testing.T) {
	// An already-expired context fails before the run starts.
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := coest.Estimate(expired, coest.TCPIP(quickTCPIP())); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want DeadlineExceeded", err)
	}

	// Mid-run cancellation aborts promptly with the context's cause.
	p := coest.DefaultTCPIPParams()
	p.Packets = 500
	sess, err := coest.NewSession(coest.TCPIP(p))
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		stop()
	}()
	start := time.Now()
	_, err = sess.Estimate(ctx)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if took > 2*time.Second {
		t.Fatalf("cancelled run returned after %v; want prompt abort", took)
	}

	// The simulated-time deadline on the warm path keeps its own error.
	if _, err := sess.Estimate(context.Background(), coest.WithDeadline(time.Microsecond)); !errors.Is(err, coest.ErrSimTimeExceeded) {
		t.Fatalf("WithDeadline: err = %v, want ErrSimTimeExceeded", err)
	}
}

// TestOptionScope: run-level options on single-run entry points fail with
// the typed sentinel instead of being silently ignored.
func TestOptionScope(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	runOnly := []struct {
		name string
		opt  coest.Option
	}{
		{"WithWorkers", coest.WithWorkers(2)},
		{"WithProgress", coest.WithProgress(func(coest.PointMetrics) {})},
	}
	for _, tc := range runOnly {
		_, err := coest.Estimate(context.Background(), sys, tc.opt)
		if !errors.Is(err, coest.ErrOptionScope) {
			t.Fatalf("Estimate(%s): err = %v, want ErrOptionScope", tc.name, err)
		}
		var scope *coest.OptionScopeError
		if !errors.As(err, &scope) || scope.Option != tc.name || scope.Call != "Estimate" {
			t.Fatalf("Estimate(%s): scope detail = %+v", tc.name, scope)
		}
		if _, err := coest.NewSession(sys, tc.opt); !errors.Is(err, coest.ErrOptionScope) {
			t.Fatalf("NewSession(%s): err = %v, want ErrOptionScope", tc.name, err)
		}
	}
	// Sweep accepts both scopes.
	grid := coest.Grid{N: 1, Build: func(int) (*coest.System, error) { return coest.TCPIP(quickTCPIP()), nil }}
	if _, err := coest.Sweep(context.Background(), grid, coest.WithWorkers(2), coest.WithDMASize(64)); err != nil {
		t.Fatalf("Sweep with mixed scopes: %v", err)
	}
}

// TestSystemClone: a clone is an independent subject — estimating the clone
// reproduces the original's result, and both can run concurrently.
func TestSystemClone(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	clone := sys.Clone()
	a, err := coest.Estimate(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coest.Estimate(context.Background(), clone)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatalf("clone estimate %v != original %v", b.Total, a.Total)
	}
}

// TestSessionReusable: a Session exposes its synthesis artifacts, estimates
// repeatedly, and its Estimate takes the full per-run option list.
func TestSessionReusable(t *testing.T) {
	sess, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	if sess.SWProgram() == nil {
		t.Fatal("compiled system has no software program")
	}
	if len(sess.HWNetlists()) == 0 {
		t.Fatal("compiled system has no hardware netlists")
	}
	a, err := sess.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Estimate(context.Background())
	if err != nil {
		t.Fatalf("second Estimate on Session: %v", err)
	}
	if a.Total != b.Total {
		t.Fatalf("repeat estimates differ: %v vs %v", a.Total, b.Total)
	}
	refined, err := sess.Estimate(context.Background(), coest.WithDMASize(64))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Total == a.Total {
		t.Fatal("Session.Estimate options must refine the run")
	}
	if _, err := sess.Estimate(context.Background(), coest.WithWorkers(2)); !errors.Is(err, coest.ErrOptionScope) {
		t.Fatalf("Session.Estimate(WithWorkers): err = %v, want ErrOptionScope", err)
	}
}

// TestEstimateBatch: a batch coalesces many configurations of one compiled
// design; a failing point lands in its slot instead of aborting the batch.
func TestEstimateBatch(t *testing.T) {
	sess, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	points := [][]coest.Option{
		{},
		{coest.WithDMASize(64)},
		{coest.WithDMASize(0)}, // invalid: must fail alone
	}
	var seen int
	results, err := sess.EstimateBatch(context.Background(), points,
		coest.WithWorkers(2),
		coest.WithProgress(func(coest.PointMetrics) { seen++ }))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points) {
		t.Fatalf("results = %d, want %d", len(results), len(points))
	}
	if seen != len(points) {
		t.Fatalf("progress saw %d points, want %d", seen, len(points))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("good points failed: %v, %v", results[0].Err, results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("invalid point must carry its error")
	}
	if results[0].Report.Total == results[1].Report.Total {
		t.Fatal("batch points must reflect their own configs")
	}

	errs := coest.Errors(results)
	if len(errs) != 1 {
		t.Fatalf("Errors = %v, want exactly one", errs)
	}
	if errs[0] == nil || !errors.Is(errs[0], errors.Unwrap(errs[0])) {
		t.Fatalf("Errors must wrap the point failure: %v", errs[0])
	}

	// The batch-wide config options apply under each point's own.
	wide, err := sess.EstimateBatch(context.Background(), [][]coest.Option{{}}, coest.WithDMASize(64))
	if err != nil {
		t.Fatal(err)
	}
	if wide[0].Err != nil {
		t.Fatal(wide[0].Err)
	}
	if wide[0].Report.Total != results[1].Report.Total {
		t.Fatal("batch-wide option must match the per-point equivalent")
	}
}
