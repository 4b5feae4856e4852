package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var at units.Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestNilFnPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("nil event function must panic")
		}
	}()
	k.At(0, nil)
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []units.Time
	for _, tt := range []units.Time{10, 20, 30, 40} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if k.Now() != 25 {
		t.Errorf("Now() = %v, want deadline 25", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after resume, want all four", fired)
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(25, func() { fired = true })
	k.RunUntil(25)
	if !fired {
		t.Error("event at exactly the deadline must fire")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	k.At(1, func() { n++; k.Stop() })
	k.At(2, func() { n++ })
	k.Run()
	if n != 1 {
		t.Errorf("Stop did not halt the run: n=%d", n)
	}
	k.Run() // resume
	if n != 2 {
		t.Errorf("resume after Stop failed: n=%d", n)
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var ticks []uint64
	var stop func()
	stop = k.Ticker(10, func(n uint64) {
		ticks = append(ticks, n)
		if n == 4 {
			stop()
		}
	})
	k.RunUntil(1000)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, n := range ticks {
		if n != uint64(i) {
			t.Errorf("tick %d has index %d", i, n)
		}
	}
	if k.Pending() != 0 {
		t.Error("stopped ticker left events behind")
	}
}

func TestTickerPeriod(t *testing.T) {
	k := NewKernel()
	var times []units.Time
	stop := k.Ticker(7, func(uint64) { times = append(times, k.Now()) })
	k.RunUntil(21)
	stop()
	want := []units.Time{7, 14, 21}
	if len(times) != len(want) {
		t.Fatalf("tick times %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick times %v, want %v", times, want)
		}
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and every event fires exactly once.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		count := int(n%50) + 1
		times := make([]units.Time, count)
		var fired []units.Time
		for i := 0; i < count; i++ {
			tt := units.Time(rng.Intn(100))
			times[i] = tt
			k.At(tt, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != count {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — two kernels fed the same schedule produce the same
// firing sequence even with same-time collisions.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() []int {
			rng := rand.New(rand.NewSource(seed))
			k := NewKernel()
			var got []int
			for i := 0; i < 64; i++ {
				i := i
				k.At(units.Time(rng.Intn(8)), func() { got = append(got, i) })
			}
			k.Run()
			return got
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
