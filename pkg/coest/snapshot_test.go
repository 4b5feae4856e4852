package coest_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
)

// TestSnapshotRoundTrip is the portable-warmth contract: a session restored
// from a snapshot produces bit-identical reports to the origin session with
// zero compilation, synthesis or characterization, and carries the learned
// energy-cache paths with it. Restore compiles each gate netlist once; the
// restored session's estimates compile none.
func TestSnapshotRoundTrip(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	origin, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := origin.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the origin's energy cache so the snapshot carries learned paths.
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	if origin.SnapshotPaths() == 0 {
		t.Fatal("origin session learned no cache paths")
	}

	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	gate := telemetry.Default.Counter("coest_gate_compiles_total", "")
	macro := telemetry.Default.Counter("coest_macro_characterizations_total", "")
	sw0, hw0, gate0, macro0 := sw.Value(), hw.Value(), gate.Value(), macro.Value()

	restored, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(restored.HWNetlists())); gate.Value()-gate0 != n {
		t.Fatalf("restore compiled %d gate netlists, want one per HW module (%d)", gate.Value()-gate0, n)
	}
	gate0 = gate.Value()
	got, err := restored.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || gate.Value() != gate0 || macro.Value() != macro0 {
		t.Fatalf("restore was not warm: compiles %d->%d syntheses %d->%d gate compiles %d->%d characterizations %d->%d",
			sw0, sw.Value(), hw0, hw.Value(), gate0, gate.Value(), macro0, macro.Value())
	}
	if got.Total != want.Total || got.SWEnergy != want.SWEnergy ||
		got.HWEnergy != want.HWEnergy || got.SimulatedTime != want.SimulatedTime {
		t.Fatalf("restored report differs: got %v/%v/%v/%v want %v/%v/%v/%v",
			got.Total, got.SWEnergy, got.HWEnergy, got.SimulatedTime,
			want.Total, want.SWEnergy, want.HWEnergy, want.SimulatedTime)
	}
	if restored.SnapshotPaths() != origin.SnapshotPaths() {
		t.Fatalf("restored %d cache paths, origin has %d", restored.SnapshotPaths(), origin.SnapshotPaths())
	}
}

// TestSnapshotRejectsWrongDesign: restoring a snapshot against a different
// design must fail loudly, not mis-bind artifacts.
func TestSnapshotRejectsWrongDesign(t *testing.T) {
	origin, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := coest.RestoreSession(coest.ProdCons(coest.DefaultProdConsParams()), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore against a different design succeeded")
	}
	if _, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), strings.NewReader("not a snapshot at all, definitely")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
}

// TestSnapshotWithLegacyBackendRestores: version-1 snapshots written before
// the estimator had one execution path carry the origin session's backend
// name in their gob payload. They must still restore, and the restored
// session must estimate bit-identically to the origin.
func TestSnapshotWithLegacyBackendRestores(t *testing.T) {
	origin, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Re-encode the payload in the pre-change sessionSnap shape, behind the
	// snapshot's own magic and version header.
	type cacheSnap struct {
		Params coest.ECacheParams
		SW, HW []ecache.PathStat
	}
	type current struct {
		Artifacts core.ArtifactsState
		Caches    []cacheSnap
	}
	type legacy struct {
		Backend   string
		Artifacts core.ArtifactsState
		Caches    []cacheSnap
	}
	const header = 10
	var snap current
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[header:])).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Caches) == 0 {
		t.Fatal("origin snapshot carries no energy caches")
	}
	var old bytes.Buffer
	old.Write(buf.Bytes()[:header])
	if err := gob.NewEncoder(&old).Encode(legacy{Backend: "compiled", Artifacts: snap.Artifacts, Caches: snap.Caches}); err != nil {
		t.Fatal(err)
	}

	restored, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), &old)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SnapshotPaths() != origin.SnapshotPaths() {
		t.Fatalf("restored %d cache paths, origin has %d", restored.SnapshotPaths(), origin.SnapshotPaths())
	}
	want, err := origin.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]units.Energy{
		{got.Total, want.Total}, {got.SWEnergy, want.SWEnergy},
		{got.HWEnergy, want.HWEnergy}, {got.BusEnergy, want.BusEnergy},
	} {
		if math.Float64bits(float64(e[0])) != math.Float64bits(float64(e[1])) {
			t.Fatalf("restored energy %v, origin %v", e[0], e[1])
		}
	}
	if got.SimulatedTime != want.SimulatedTime || got.ISSCalls != want.ISSCalls || got.GateExecs != want.GateExecs {
		t.Fatalf("restored run differs: %v/%d/%d vs %v/%d/%d",
			got.SimulatedTime, got.ISSCalls, got.GateExecs, want.SimulatedTime, want.ISSCalls, want.GateExecs)
	}
}
