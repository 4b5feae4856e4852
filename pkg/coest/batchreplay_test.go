package coest_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/pkg/coest"
)

// dmaPoints is one batch point per DMA size.
func dmaPoints(dmas ...int) [][]coest.Option {
	points := make([][]coest.Option, len(dmas))
	for i, d := range dmas {
		points[i] = []coest.Option{coest.WithDMASize(d)}
	}
	return points
}

// TestEstimateBatchReplaysAcrossBatches: a session's batches replay the
// hardware executions its earlier batches recorded, and every point is
// bit-identical to Session.Estimate of the same options on a twin session
// that runs the same points in the same order — with the energy cache on,
// whose learned state then evolves alike in both, and off.
func TestEstimateBatchReplaysAcrossBatches(t *testing.T) {
	ctx := context.Background()
	points := dmaPoints(2, 8, 16, 64)
	for _, opts := range [][]coest.Option{nil, {coest.WithEnergyCache()}} {
		batched, err := coest.NewSession(coest.TCPIP(quickTCPIP()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		reference, err := coest.NewSession(coest.TCPIP(quickTCPIP()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var perBatch []uint64
		for b := 0; b < 3; b++ {
			r0 := replays.Value()
			res, err := batched.EstimateBatch(ctx, points, coest.WithWorkers(1))
			if err != nil || coest.Errors(res) != nil {
				t.Fatal(err, coest.Errors(res))
			}
			perBatch = append(perBatch, replays.Value()-r0)
			for i, r := range res {
				r0 := replays.Value()
				want, err := reference.Estimate(ctx, points[i]...)
				if err != nil {
					t.Fatal(err)
				}
				if replays.Value() != r0 {
					t.Fatal("Session.Estimate replayed")
				}
				identical(t, fmt.Sprintf("cache %v, batch %d, point %d", opts != nil, b, i), r.Report, want)
			}
		}
		if perBatch[1] == 0 || perBatch[2] == 0 {
			t.Fatalf("cache %v: replays per batch %v, want later batches to replay", opts != nil, perBatch)
		}
	}
}

// TestConcurrentBatchesShareOneTable: batches that run at once on one
// session, each on two workers, record into and replay from one table, and
// every point equals a cold Estimate. Run under -race.
func TestConcurrentBatchesShareOneTable(t *testing.T) {
	ctx := context.Background()
	sys := coest.TCPIP(quickTCPIP())
	points := dmaPoints(2, 16, 64)
	want := make([]*coest.Report, len(points))
	for i, p := range points {
		var err error
		if want[i], err = coest.Estimate(ctx, sys, p...); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	r0 := replays.Value()
	const callers = 4
	results := make([][]coest.PointResult, 2*callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				res, err := sess.EstimateBatch(ctx, points, coest.WithWorkers(2))
				if err != nil {
					t.Error(err)
					return
				}
				results[2*c+k] = res
			}
		}(c)
	}
	wg.Wait()
	if replays.Value() == r0 {
		t.Fatal("concurrent batches of the same points replayed nothing")
	}
	for b, res := range results {
		if len(res) != len(points) || coest.Errors(res) != nil {
			t.Fatalf("batch %d: %d results, errors %v", b, len(res), coest.Errors(res))
		}
		for i, r := range res {
			identical(t, fmt.Sprintf("batch %d point %d", b, i), r.Report, want[i])
		}
	}
}

// TestSessionReplayCapStopsRecording: a session's table stops recording
// once its courses reach the session's byte cap, and its batches go on
// simulating what it does not hold, exactly. Each reader execution records
// about 114 kB, so the 1 MiB table holds about 9 of the 12: the first
// batch records them, the second replays them and simulates the rest
// without recording, and the third replays just as many.
func TestSessionReplayCapStopsRecording(t *testing.T) {
	const ticks, words = 12, 48
	ctx := context.Background()
	sys := readerSystem(ticks, words, 1024)
	opt := readerTime(ticks, words)
	want, err := coest.Estimate(ctx, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.GateExecs != ticks {
		t.Fatalf("%d executions, want %d", want.GateExecs, ticks)
	}
	sess, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	f0 := fallbacks.Value()
	var perBatch []uint64
	for b := 0; b < 3; b++ {
		r0 := replays.Value()
		res, err := sess.EstimateBatch(ctx, [][]coest.Option{{opt}})
		if err != nil || coest.Errors(res) != nil {
			t.Fatal(err, coest.Errors(res))
		}
		perBatch = append(perBatch, replays.Value()-r0)
		identical(t, fmt.Sprintf("batch %d", b), res[0].Report, want)
	}
	if perBatch[0] != 0 || perBatch[1] == 0 || perBatch[1] >= ticks || perBatch[2] != perBatch[1] ||
		fallbacks.Value() != f0 {
		t.Fatalf("replays per batch %v, %d fallbacks: want none, then the same number short of %d, and no fallback",
			perBatch, fallbacks.Value()-f0, ticks)
	}
}
