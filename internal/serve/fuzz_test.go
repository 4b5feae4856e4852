package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
		if req.Packets < 0 || req.Packets > maxPackets {
			t.Fatalf("accepted %d packets, bound is 0..%d", req.Packets, maxPackets)
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

// serveRaw posts body to path on s and returns the recorded answer.
func serveRaw(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// envelope gob-encodes a snapshot envelope that names a design and carries
// no blob.
func envelope(tb testing.TB, system string, packets int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&coestapi.SnapshotEnvelope{System: system, Packets: packets}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestNegativePacketsRefused: a negative packet count is a 400 at
// /estimate and /snapshot and registers no session. Every negative count
// once compiled and pinned a session of the default design.
func TestNegativePacketsRefused(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Drain(context.Background()) }()
	for _, path := range []string{"/estimate", "/snapshot"} {
		if rec := serveRaw(s, path, `{"packets":-1}`); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s {\"packets\":-1}: status %d, want 400: %s", path, rec.Code, rec.Body)
		}
	}
	if n := len(s.sessions); n != 0 {
		t.Fatalf("refused requests left %d sessions", n)
	}
}

// TestOverBoundRestoreRefusedWithoutBuilding: a snapshot envelope that
// claims maxPackets+1 packets is a 400 at /restore, and RestoreSnapshot
// refuses it after decoding the envelope alone. Building the design first
// makes one stimulus closure and payload per packet, thousands of
// allocations; decoding the envelope takes a few hundred at most.
func TestOverBoundRestoreRefusedWithoutBuilding(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Drain(context.Background()) }()
	data := envelope(t, "tcpip", maxPackets+1)
	if rec := serveRaw(s, "/restore", string(data)); rec.Code != http.StatusBadRequest {
		t.Fatalf("/restore of %d packets: status %d, want 400: %s", maxPackets+1, rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.RestoreSnapshot(data); err == nil {
			t.Fatal("restore accepted an envelope over the packet bound")
		}
	})
	if allocs > 400 {
		t.Fatalf("an envelope of %d packets is refused in %v allocations, want only the envelope's decoding", maxPackets+1, allocs)
	}
	if n := len(s.sessions); n != 0 {
		t.Fatalf("refused restores left %d sessions", n)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to Server.RestoreSnapshot, the
// envelope reader behind POST /restore and coestd -restore. It must never
// panic, and an envelope it accepts must name a design inside the packet
// bound whose session is then registered. Each accepted session is removed
// again, so the registry stays small however long the fuzzer runs.
func FuzzRestoreSnapshot(f *testing.F) {
	origin := New(Config{Workers: 1})
	f.Cleanup(func() { _ = origin.Drain(context.Background()) })
	if rec := serveRaw(origin, "/estimate", `{"packets":2,"points":[{"ecache":true}]}`); rec.Code != http.StatusOK {
		f.Fatalf("warming the origin: status %d: %s", rec.Code, rec.Body)
	}
	snap := serveRaw(origin, "/snapshot", `{"packets":2}`)
	if snap.Code != http.StatusOK {
		f.Fatalf("snapshot: status %d: %s", snap.Code, snap.Body)
	}
	f.Add(snap.Body.Bytes())
	f.Add(envelope(f, "tcpip", maxPackets+1))

	s := New(Config{Workers: 1})
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := s.RestoreSnapshot(data)
		if err != nil {
			return
		}
		if resp.Packets < 0 || resp.Packets > maxPackets {
			t.Fatalf("accepted an envelope of %d packets, bound is 0..%d", resp.Packets, maxPackets)
		}
		key := sessionKey{system: resp.System, packets: resp.Packets}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.sessions[key] == nil {
			t.Fatalf("accepted %s/%d registered no session", resp.System, resp.Packets)
		}
		delete(s.sessions, key)
	})
}
