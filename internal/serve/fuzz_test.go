package serve

import (
	"encoding/json"
	"testing"

	"repro/pkg/coest/coestapi"
)

// FuzzValidateRequest feeds arbitrary bodies through the /estimate decoder
// and validator. It must never panic, and a request it accepts must stay
// inside the packet and point bounds and build, so a request that passes
// validation never fails later with a 500.
func FuzzValidateRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req coestapi.Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if validateRequest(&req) != nil {
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
