package coest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/ecache"
)

// Snapshot container format: magic, format version, then one gob stream.
// The version is bumped on any incompatible change to the snapshot payload;
// ReadSnapshot rejects unknown versions rather than guessing.
var snapshotMagic = [8]byte{'C', 'O', 'E', 'S', 'N', 'A', 'P', 0}

// SnapshotVersion is the binary snapshot format version this build writes.
const SnapshotVersion uint16 = 1

// sessionSnap is the gob payload of a session snapshot. Gob skips fields
// the payload carries but the struct lacks, so version-1 snapshots that
// still name an estimator backend restore unchanged.
type sessionSnap struct {
	Artifacts core.ArtifactsState
	Caches    []cacheSnap
}

// cacheSnap is one persistent energy-cache pair's learned state.
type cacheSnap struct {
	Params ECacheParams
	SW, HW []ecache.PathStat
}

// WriteSnapshot serializes the session's warm state — compiled artifacts
// plus every persistent energy cache — to w as a versioned binary snapshot.
// A fresh process that restores it (RestoreSession) starts warm: zero
// recompilation, resynthesis or recharacterization, and the learned energy
// paths intact.
//
// WriteSnapshot is safe for concurrent use with estimation.
func (s *Session) WriteSnapshot(w io.Writer) error {
	snap := sessionSnap{Artifacts: s.art.State()}
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

// RestoreSession rebuilds a warm session from a snapshot written by
// WriteSnapshot. sys must be the same design the snapshot was taken from —
// in a fleet, both sides construct it from the same named system
// specification (BySystemName), which makes the CFSM network deterministic
// and the artifact rebind by machine name exact. opts take the same
// config-scope options as NewSession and must resolve to the HW width the
// artifacts were compiled at.
//
// Restore performs no software compilation, hardware synthesis or
// characterization: the session is as warm as the origin, including every
// energy-cache path the origin had learned. It compiles each gate netlist
// once (the levelized program warm runs share), which also rejects a
// snapshot whose netlist could not be simulated.
func RestoreSession(sys *System, r io.Reader, opts ...Option) (*Session, error) {
	snap, err := readSnap(r)
	if err != nil {
		return nil, err
	}
	cfg, err := sys.configured("RestoreSession", scopeConfig, opts)
	if err != nil {
		return nil, err
	}
	spec := sys.spec.Clone()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	art, err := core.ArtifactsFromState(snap.Artifacts, spec)
	if err != nil {
		return nil, fmt.Errorf("coest: restoring artifacts: %w", err)
	}
	if cfg.HWWidth != art.HWWidth {
		return nil, fmt.Errorf(
			"coest: RestoreSession: HW width %d differs from the snapshot's compiled width %d",
			cfg.HWWidth, art.HWWidth)
	}
	s := &Session{
		spec:   spec,
		base:   cfg,
		art:    art,
		caches: make(map[ECacheParams]*cachePair),
	}
	for _, cs := range snap.Caches {
		pair := &cachePair{sw: ecache.New(cs.Params).Shared(), hw: ecache.New(cs.Params).Shared()}
		pair.sw.Load(cs.SW)
		pair.hw.Load(cs.HW)
		s.caches[cs.Params] = pair
	}
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
