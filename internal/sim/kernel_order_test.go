package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// refEvent / refQueue is a container/heap scheduler core ordered by (time,
// insertion sequence), kept as the ordering oracle for the kernel's 4-ary
// value heap.
type refEvent struct {
	at  units.Time
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// TestFiringOrderMatchesReferenceHeap schedules random batches — including
// heavy same-instant collisions — into both the kernel and the reference
// heap and requires identical firing order, interleaving scheduling with
// firing to exercise heap state mid-run.
func TestFiringOrderMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel()
		ref := refQueue{}
		var seq uint64
		var got, want []int
		id := 0

		// An event scheduled from inside a firing event takes a later
		// sequence number than its creator, even at the same instant, so a
		// global (time, seq) sort still describes the firing order.
		var schedule func(n int)
		schedule = func(n int) {
			for i := 0; i < n; i++ {
				at := k.Now() + units.Time(rng.Intn(8)) // few distinct times: force tiebreaks
				myID := id
				id++
				heap.Push(&ref, &refEvent{at: at, seq: seq, id: myID})
				seq++
				k.At(at, func() {
					got = append(got, myID)
					// Occasionally schedule more work from inside an event,
					// as bus/RTOS handlers do.
					if rng.Intn(4) == 0 {
						schedule(rng.Intn(3))
					}
				})
			}
		}

		schedule(20 + rng.Intn(30))
		for k.Step() {
		}
		for ref.Len() > 0 {
			want = append(want, heap.Pop(&ref).(*refEvent).id)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference has %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestKernelScheduleFireZeroAlloc is the alloc guard: once the heap has
// warmed up, the schedule→fire steady state of the kernel must not allocate.
func TestKernelScheduleFireZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the heap to its steady-state footprint.
	for i := 0; i < 64; i++ {
		k.After(units.Time(i), fn)
	}
	for k.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		k.After(3, fn)
		k.After(1, fn)
		for k.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("kernel schedule/fire steady state allocates %v allocs/op, want 0", avg)
	}
}
