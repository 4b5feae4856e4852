package coest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/cfsm"
	"repro/internal/ecache"
)

// Snapshot container format: magic, format version, then one gob stream.
// The version is bumped on any incompatible change to the snapshot payload;
// RestoreSession rejects every other version rather than guessing.
var snapshotMagic = [8]byte{'C', 'O', 'E', 'S', 'N', 'A', 'P', 0}

// SnapshotVersion is the binary snapshot format version this build writes
// and the only one it reads.
const SnapshotVersion uint16 = 2

// sessionSnap is the gob payload of a session snapshot: the learned energy
// caches, and the identity of the design they were learned on.
type sessionSnap struct {
	HWWidth int
	// Machines lists the network's machines in order: cache keys name a
	// machine by its index.
	Machines []machineID
	Caches   []cacheSnap
}

// machineID is the part of a machine a snapshot must agree with.
type machineID struct {
	Name        string
	Transitions int
}

// cacheSnap is one persistent energy-cache pair's learned state.
type cacheSnap struct {
	Params ECacheParams
	SW, HW []ecache.PathStat
}

// machineIDs lists the identities of ms, in order.
func machineIDs(ms []*cfsm.CFSM) []machineID {
	out := make([]machineID, len(ms))
	for i, m := range ms {
		out[i] = machineID{Name: m.Name, Transitions: len(m.Transitions)}
	}
	return out
}

// WriteSnapshot serializes the session's learned state — every persistent
// energy cache, with the HW width and machine list they belong to — to w as
// a versioned binary snapshot. The compiled artifacts are not part of it: a
// process that restores it (RestoreSession) compiles the design and starts
// with the learned energy paths intact.
//
// WriteSnapshot is safe for concurrent use with estimation.
func (s *Session) WriteSnapshot(w io.Writer) error {
	snap := sessionSnap{HWWidth: s.art.HWWidth, Machines: machineIDs(s.spec.Net.Machines)}
	s.mu.Lock()
	params := make([]ECacheParams, 0, len(s.caches))
	for p := range s.caches {
		params = append(params, p)
	}
	// Deterministic order: snapshots of identical state are byte-identical.
	sort.Slice(params, func(i, j int) bool {
		a, b := params[i], params[j]
		if a.ThreshVariance != b.ThreshVariance {
			return a.ThreshVariance < b.ThreshVariance
		}
		return a.ThreshCalls < b.ThreshCalls
	})
	for _, p := range params {
		pair := s.caches[p]
		snap.Caches = append(snap.Caches, cacheSnap{
			Params: p, SW: pair.sw.Dump(), HW: pair.hw.Dump(),
		})
	}
	s.mu.Unlock()

	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	buf.WriteByte(byte(SnapshotVersion))
	buf.WriteByte(byte(SnapshotVersion >> 8))
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return fmt.Errorf("coest: encoding snapshot: %w", err)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readSnap decodes and validates the snapshot container.
func readSnap(r io.Reader) (*sessionSnap, error) {
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("coest: reading snapshot header: %w", err)
	}
	if !bytes.Equal(hdr[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("coest: not a session snapshot (bad magic)")
	}
	ver := uint16(hdr[8]) | uint16(hdr[9])<<8
	if ver != SnapshotVersion {
		return nil, fmt.Errorf("coest: snapshot format v%d not supported (this build reads v%d)", ver, SnapshotVersion)
	}
	var snap sessionSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("coest: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// RestoreSession builds a session of sys with NewSession and loads the
// energy caches of a snapshot written by WriteSnapshot into it. sys must be
// the design the snapshot was taken from — in a fleet, both sides construct
// it from the same named system specification (BySystemName) — and opts
// take the same config-scope options as NewSession.
//
// The restored session has compiled the design once, as a cold session
// does, and starts with every energy-cache path the origin had learned. A
// snapshot is refused with an error when its machine list differs from
// sys, when its HW width differs from the session's compiled width, or when
// any cached path's statistics could not come from a real run.
func RestoreSession(sys *System, r io.Reader, opts ...Option) (*Session, error) {
	snap, err := readSnap(r)
	if err != nil {
		return nil, err
	}
	if want := machineIDs(sys.spec.Net.Machines); !slices.Equal(snap.Machines, want) {
		return nil, fmt.Errorf("coest: RestoreSession: snapshot is of another design (the system's machines are %v)", want)
	}
	caches := make(map[ECacheParams]*cachePair, len(snap.Caches))
	for _, cs := range snap.Caches {
		if math.IsNaN(cs.Params.ThreshVariance) {
			return nil, fmt.Errorf("coest: RestoreSession: snapshot cache has a NaN variance threshold")
		}
		pair := newCachePair(cs.Params)
		if err := pair.sw.Load(cs.SW); err != nil {
			return nil, fmt.Errorf("coest: RestoreSession: SW cache: %w", err)
		}
		if err := pair.hw.Load(cs.HW); err != nil {
			return nil, fmt.Errorf("coest: RestoreSession: HW cache: %w", err)
		}
		caches[cs.Params] = pair
	}
	s, err := NewSession(sys, opts...)
	if err != nil {
		return nil, err
	}
	if snap.HWWidth != s.art.HWWidth {
		return nil, fmt.Errorf(
			"coest: RestoreSession: snapshot was taken at HW width %d, the session compiles at %d",
			snap.HWWidth, s.art.HWWidth)
	}
	s.caches = caches
	return s, nil
}

// SnapshotPaths returns the number of energy-cache path entries a restored
// or live session currently holds across all persistent caches (SW + HW) —
// the warmth figure reported by the serving layer's restore endpoint.
func (s *Session) SnapshotPaths() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, pair := range s.caches {
		n += len(pair.sw.Dump()) + len(pair.hw.Dump())
	}
	return n
}
