package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// §5.3: "the peaks in power consumption are associated with the points in
// time when the modules handshake with the arbiter". Verify that the peak
// power bucket overlaps bus-grant activity.
func TestPowerPeaksCorrelateWithArbiterHandshakes(t *testing.T) {
	p := systems.DefaultTCPIP()
	p.Packets = 4
	sys, cfg := systems.TCPIP(p)
	cfg.WaveformBucket = 5 * units.Microsecond
	grants := &busGrants{}
	cfg.Sink = grants
	cs, err := core.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	peakAt, peakP := rep.Waveform.Peak()
	if peakP <= 0 {
		t.Fatal("no peak recorded")
	}
	// Some bus grant must be active within the peak bucket (or the
	// adjacent ones — reaction energy is charged at dispatch, transfers
	// complete within the following bucket).
	lo := peakAt - cfg.WaveformBucket
	hi := peakAt + 2*cfg.WaveformBucket
	overlap := false
	for _, g := range grants.events {
		if g.Time < hi && g.Time+g.Dur > lo {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Fatalf("power peak at %v does not overlap any arbiter grant", peakAt)
	}
}

// busGrants keeps a run's KindBusTransaction events.
type busGrants struct{ events []telemetry.Event }

func (b *busGrants) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindBusTransaction {
		b.events = append(b.events, ev)
	}
}

func (b *busGrants) Close() error { return nil }
