package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/systems"
)

// tcpipBuild returns a build function over a tiny perm × DMA grid.
func tcpipBuild(perms, dmas []int) (int, func(i int) (*core.System, core.Config, error)) {
	n := len(perms) * len(dmas)
	return n, func(i int) (*core.System, core.Config, error) {
		p := systems.DefaultTCPIP()
		p.Packets = 2
		p.PriorityPerm = perms[i/len(dmas)]
		p.DMASize = dmas[i%len(dmas)]
		sys, cfg := systems.TCPIP(p)
		return sys, cfg, nil
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	point := func(_ context.Context, i int) (int, error) {
		if i%3 == 0 {
			time.Sleep(time.Duration(i%5) * time.Millisecond) // scramble completion order
		}
		return i * i, nil
	}
	want, err := Run(context.Background(), 17, Options{Workers: 1}, point)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, err := Run(context.Background(), 17, Options{Workers: w}, point)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from serial", w)
		}
	}
}

func TestRunLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("point %d failed", i) }
	results, err := Run(context.Background(), 10, Options{Workers: 4},
		func(_ context.Context, i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, boom(i)
			}
			return i, nil
		})
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("err = %v, want point 3's", err)
	}
	for j := 1; j < len(results); j++ {
		if results[j].Index <= results[j-1].Index {
			t.Fatal("partial results must stay index-ordered")
		}
	}
}

func TestRunCancelReturnsPartialOrdered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	results, err := Run(ctx, 100, Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			if completed.Add(1) == 5 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == 0 || len(results) == 100 {
		t.Fatalf("results = %d points, want a proper partial set", len(results))
	}
	for j, r := range results {
		if j > 0 && r.Index <= results[j-1].Index {
			t.Fatal("partial results must stay index-ordered")
		}
	}
}

func TestRunEmptyAndCancelledGrid(t *testing.T) {
	if res, err := Run(context.Background(), 0, Options{}, func(context.Context, int) (int, error) { return 0, nil }); err != nil || res != nil {
		t.Fatalf("empty grid = %v, %v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, 5, Options{}, func(context.Context, int) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled grid err = %v", err)
	}
}

// TestRunReportsParallelMatchesSerial is the engine-wide determinism
// guarantee: an N-worker sweep produces reports byte-identical to the serial
// sweep (wall time aside, which by nature differs run to run).
func TestRunReportsParallelMatchesSerial(t *testing.T) {
	n, build := tcpipBuild([]int{0, 5}, []int{2, 64})
	serial, err := RunReports(context.Background(), n, Options{Workers: 1}, build)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunReports(context.Background(), n, Options{Workers: 4}, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != n || len(parallel) != n {
		t.Fatalf("lengths: serial %d, parallel %d, want %d", len(serial), len(parallel), n)
	}
	for i := range serial {
		a, b := *serial[i].Value, *parallel[i].Value
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d: parallel report differs from serial:\n%v\nvs\n%v", i, a.String(), b.String())
		}
	}
}

func TestRunReportsMetricsHook(t *testing.T) {
	n, build := tcpipBuild([]int{0}, []int{2, 16})
	var metrics []PointMetrics
	_, err := RunReports(context.Background(), n, Options{Workers: 2, OnPoint: func(m PointMetrics) {
		metrics = append(metrics, m) // serialized by the engine
	}}, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != n {
		t.Fatalf("metrics records = %d, want %d", len(metrics), n)
	}
	for _, m := range metrics {
		if m.Err != nil {
			t.Fatalf("point %d: %v", m.Index, m.Err)
		}
		if m.Total != n || m.Wall <= 0 {
			t.Fatalf("bad record %+v", m)
		}
		if m.ISSInsts == 0 || m.GateEvals == 0 {
			t.Fatalf("point %d: empty estimator counters %+v", m.Index, m)
		}
		if m.CompactionRatio != 1 {
			t.Fatalf("point %d: compaction off must report ratio 1, got %g", m.Index, m.CompactionRatio)
		}
	}
}

func TestRunReportsCancellation(t *testing.T) {
	n, build := tcpipBuild([]int{0, 1, 2, 3, 4, 5}, []int{2, 4, 8, 16})
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	results, err := RunReports(ctx, n, Options{Workers: 2, OnPoint: func(m PointMetrics) {
		done++
		if done == 2 {
			cancel()
		}
	}}, build)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) >= n {
		t.Fatalf("cancelled sweep completed all %d points", n)
	}
	for j, r := range results {
		if j > 0 && r.Index <= results[j-1].Index {
			t.Fatal("partial results must stay index-ordered")
		}
		if r.Value == nil || r.Value.Total <= 0 {
			t.Fatalf("partial result %d carries no report", r.Index)
		}
	}
}

func TestSharedMacroTableCharacterizesOnce(t *testing.T) {
	a, err := SharedMacroTable(iss.SPARCliteTiming(), iss.SPARCliteModel())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedMacroTable(iss.SPARCliteTiming(), iss.SPARCliteModel())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same models must share one characterized table")
	}
	c, err := SharedMacroTable(iss.SPARCliteTiming(), iss.DSPModel())
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different power models must not share a table")
	}
}
