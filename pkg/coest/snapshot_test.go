package coest_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/ecache"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/pkg/coest"
)

// snapHeader is the length of a snapshot's magic and format version.
const snapHeader = 10

// snapPayload mirrors the gob payload of a version-2 session snapshot.
type snapPayload struct {
	HWWidth  int
	Machines []struct {
		Name        string
		Transitions int
	}
	Caches []struct {
		Params coest.ECacheParams
		SW, HW []ecache.PathStat
	}
}

func decodeSnap(tb testing.TB, blob []byte) snapPayload {
	tb.Helper()
	var p snapPayload
	if err := gob.NewDecoder(bytes.NewReader(blob[snapHeader:])).Decode(&p); err != nil {
		tb.Fatal(err)
	}
	return p
}

// warmSnapshot estimates sys twice with the energy cache on, so the
// session has learned paths, and returns the session with its snapshot.
func warmSnapshot(tb testing.TB, sys *coest.System) (*coest.Session, []byte) {
	tb.Helper()
	s, err := coest.NewSession(sys)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Estimate(context.Background(), coest.WithEnergyCache()); err != nil {
			tb.Fatal(err)
		}
	}
	if s.SnapshotPaths() == 0 {
		tb.Fatal("session learned no cache paths")
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return s, buf.Bytes()
}

// sameReport fails the test unless got and want agree bit for bit.
func sameReport(t *testing.T, what string, got, want *coest.Report) {
	t.Helper()
	for _, e := range [][2]units.Energy{
		{got.Total, want.Total}, {got.SWEnergy, want.SWEnergy},
		{got.HWEnergy, want.HWEnergy}, {got.BusEnergy, want.BusEnergy},
	} {
		if math.Float64bits(float64(e[0])) != math.Float64bits(float64(e[1])) {
			t.Fatalf("%s: restored energy %v, origin %v", what, e[0], e[1])
		}
	}
	if got.SimulatedTime != want.SimulatedTime || got.ISSCalls != want.ISSCalls || got.GateExecs != want.GateExecs {
		t.Fatalf("%s: restored run %v/%d ISS/%d gate, origin %v/%d/%d", what,
			got.SimulatedTime, got.ISSCalls, got.GateExecs, want.SimulatedTime, want.ISSCalls, want.GateExecs)
	}
}

// TestSnapshotRoundTrip is the portable-warmth contract: a restore compiles
// the design once — one software compile, and one synthesis and one gate
// compile per HW module — and carries the learned energy-cache paths, so
// the restored session's reference and energy-cache reports are
// bit-identical to the origin's. Estimates on the restored session compile
// nothing.
func TestSnapshotRoundTrip(t *testing.T) {
	designs := []struct {
		name string
		sys  func() *coest.System
	}{
		{"tcpip", func() *coest.System { return coest.TCPIP(quickTCPIP()) }},
		{"prodcons", func() *coest.System { return coest.ProdCons(coest.DefaultProdConsParams()) }},
		{"automotive", func() *coest.System { return coest.Automotive(coest.DefaultAutomotiveParams()) }},
	}
	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	gate := telemetry.Default.Counter("coest_gate_compiles_total", "")
	macro := telemetry.Default.Counter("coest_macro_characterizations_total", "")
	ctx := context.Background()
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			origin, blob := warmSnapshot(t, d.sys())

			sw0, hw0, gate0, macro0 := sw.Value(), hw.Value(), gate.Value(), macro.Value()
			restored, err := coest.RestoreSession(d.sys(), bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			mods := uint64(len(restored.HWNetlists()))
			if sw.Value()-sw0 != 1 || hw.Value()-hw0 != mods || gate.Value()-gate0 != mods || macro.Value() != macro0 {
				t.Fatalf("restore cost %d compiles, %d syntheses, %d gate compiles, %d characterizations; want 1, %d, %d, 0",
					sw.Value()-sw0, hw.Value()-hw0, gate.Value()-gate0, macro.Value()-macro0, mods, mods)
			}
			if restored.SnapshotPaths() != origin.SnapshotPaths() {
				t.Fatalf("restored %d cache paths, origin has %d", restored.SnapshotPaths(), origin.SnapshotPaths())
			}

			sw0, hw0, gate0 = sw.Value(), hw.Value(), gate.Value()
			for _, run := range []struct {
				what string
				opts []coest.Option
			}{
				{"reference", nil},
				{"energy cache", []coest.Option{coest.WithEnergyCache()}},
			} {
				want, err := origin.Estimate(ctx, run.opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.Estimate(ctx, run.opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, run.what, got, want)
			}
			// The origin's estimates above are warm too, so any compile
			// counted here is the restored session's.
			if sw.Value() != sw0 || hw.Value() != hw0 || gate.Value() != gate0 || macro.Value() != macro0 {
				t.Fatalf("estimates on the restored session compiled: sw %d→%d hw %d→%d gate %d→%d macro %d→%d",
					sw0, sw.Value(), hw0, hw.Value(), gate0, gate.Value(), macro0, macro.Value())
			}
		})
	}
}

// TestSnapshotRejectsWrongDesign: a snapshot restored against a design or
// HW width other than its own, a version-1 snapshot and bytes that are no
// snapshot all fail loudly, instead of loading caches keyed to other
// machines.
func TestSnapshotRejectsWrongDesign(t *testing.T) {
	_, blob := warmSnapshot(t, coest.TCPIP(quickTCPIP()))
	v1 := append([]byte(nil), blob...)
	v1[8], v1[9] = 1, 0

	narrow := coest.WithConfig(func(c *coest.RunConfig) { c.HWWidth = 8 })
	cases := []struct {
		name string
		sys  *coest.System
		data []byte
		opts []coest.Option
		want string
	}{
		{"another design", coest.ProdCons(coest.DefaultProdConsParams()), blob, nil, "another design"},
		{"another HW width", coest.TCPIP(quickTCPIP()), blob, []coest.Option{narrow}, "HW width"},
		{"version 1", coest.TCPIP(quickTCPIP()), v1, nil, "format v1 not supported (this build reads v2)"},
		{"not a snapshot", coest.TCPIP(quickTCPIP()), []byte("not a snapshot at all, definitely"), nil, "bad magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := coest.RestoreSession(c.sys, bytes.NewReader(c.data), c.opts...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("restore error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzRestoreSession feeds arbitrary bytes to RestoreSession of a 2-packet
// tcpip. It must never panic; every snapshot it accepts must hold only
// cache statistics that pass validation, and must write a snapshot that
// restores again with the same number of paths. The seeds in
// testdata/fuzz/FuzzRestoreSession — a real snapshot, one behind a
// version-1 header, a bad magic, one with a NaN energy mean and one of
// another design — run under plain go test.
func FuzzRestoreSession(f *testing.F) {
	sys := coest.TCPIP(quickTCPIP())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := coest.RestoreSession(sys, bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for _, c := range decodeSnap(t, buf.Bytes()).Caches {
			for _, ps := range append(c.SW, c.HW...) {
				if err := ps.Energy.Validate(); err != nil {
					t.Fatalf("accepted snapshot holds %v", err)
				}
				if err := ps.Cycles.Validate(); err != nil {
					t.Fatalf("accepted snapshot holds %v", err)
				}
			}
		}
		again, err := coest.RestoreSession(sys, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-written snapshot does not restore: %v", err)
		}
		if again.SnapshotPaths() != s.SnapshotPaths() {
			t.Fatalf("re-restored %d paths, restored %d", again.SnapshotPaths(), s.SnapshotPaths())
		}
	})
}
