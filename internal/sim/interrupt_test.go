package sim

import (
	"testing"

	"repro/internal/units"
)

func TestRunUntilInterruptedNilChannelMatchesRunUntil(t *testing.T) {
	k := NewKernel()
	var fired int
	for i := 0; i < 5; i++ {
		k.At(units.Time(i*10), func() { fired++ })
	}
	if k.RunUntilInterrupted(units.Forever, nil) {
		t.Fatalf("nil-channel run reported an interrupt")
	}
	if fired != 5 {
		t.Fatalf("fired %d events, want 5", fired)
	}
}

func TestRunUntilInterruptedStopsWithinOneEvent(t *testing.T) {
	k := NewKernel()
	done := make(chan struct{})
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired == 3 {
			close(done) // signal mid-run, from inside an event
		}
		k.After(10, tick)
	}
	k.After(10, tick)

	if !k.RunUntilInterrupted(units.Forever, done) {
		t.Fatalf("run did not report the interrupt")
	}
	// The signal fires during event 3; the loop must stop before
	// dispatching event 4.
	if fired != 3 {
		t.Fatalf("fired %d events after interrupt, want 3", fired)
	}
	if k.Pending() == 0 {
		t.Fatalf("interrupted kernel should still hold the pending event")
	}

	// The kernel is resumable after an interrupt.
	if k.RunUntilInterrupted(k.Now()+10, nil) {
		t.Fatalf("resumed run reported an interrupt")
	}
	if fired != 4 {
		t.Fatalf("resume fired %d total events, want 4", fired)
	}
}
