package serve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/pkg/coest/coestapi"
)

// FuzzValidateRequest feeds arbitrary bodies through the /estimate decoder
// and validator of a server with one warm session, (tcpip, 2). It must
// never panic, and a request it accepts must stay inside the packet and
// point bounds and build, warm or not, so a request that passes validation
// never fails later with a 500.
func FuzzValidateRequest(f *testing.F) {
	s := New(Config{Workers: 1})
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	if _, _, err := s.session(context.Background(), &coestapi.Request{Packets: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"packets":2}`))
	f.Add([]byte(`{"system":"tcpip","packets":2,"points":[{"dma_size":8}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req coestapi.Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if s.validateRequest(&req) != nil {
			return
		}
		if req.Packets > maxPackets {
			t.Fatalf("accepted %d packets, bound is %d", req.Packets, maxPackets)
		}
		if len(req.Points) > maxPoints {
			t.Fatalf("accepted %d points, bound is %d", len(req.Points), maxPoints)
		}
		if _, err := buildSystem(&req); err != nil {
			t.Fatalf("accepted request does not build: %v", err)
		}
	})
}

// TestWarmRequestValidatesWithoutBuilding: a request for a design with a
// warm session validates without building the system again. Building
// {"packets":4096} makes 4096 stimuli.
func TestWarmRequestValidatesWithoutBuilding(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Drain(context.Background()) }()
	req := coestapi.Request{Packets: maxPackets}
	if _, _, err := s.session(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if e := s.validateRequest(&req); e != nil {
			t.Fatal(e.msg)
		}
	})
	if allocs > 4 {
		t.Fatalf("a warm {\"packets\":%d} validates in %v allocations, want a handful", maxPackets, allocs)
	}
}
