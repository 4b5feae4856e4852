package engine

import (
	"sync"

	"repro/internal/iss"
	"repro/internal/macromodel"
	"repro/internal/telemetry"
)

// mCharacterizations counts real macro-model characterization runs (cache
// misses). Warm-session tests assert zero growth across repeat requests.
var mCharacterizations = telemetry.Default.Counter(
	"coest_macro_characterizations_total", "macro-model characterization runs (shared-table misses)")

// macroKey identifies one characterization: the full timing model (a
// comparable value struct) plus the power model's name. Power models are
// immutable after construction and uniquely named (sparclite-3.3v,
// dsp-datadep, ...), so the name stands in for the table contents.
type macroKey struct {
	timing iss.TimingModel
	power  string
}

var (
	macroMu     sync.Mutex
	macroTables = map[macroKey]*macromodel.Table{}
)

// SharedMacroTable returns the macro-model characterization table for the
// given models, running the Fig 3 characterization flow at most once per
// process for each (timing model, power model) pair. A sweep whose points
// all enable macro-modeling therefore characterizes once and shares the
// read-only table across every point and worker, instead of re-running the
// ISS-based measurement per point.
//
// Characterization failures are not cached; a later call retries.
func SharedMacroTable(timing *iss.TimingModel, power *iss.PowerModel) (*macromodel.Table, error) {
	key := macroKey{timing: *timing, power: power.Name}
	macroMu.Lock()
	defer macroMu.Unlock()
	if tbl, ok := macroTables[key]; ok {
		return tbl, nil
	}
	mCharacterizations.Inc()
	tbl, err := macromodel.Characterize(timing, power)
	if err != nil {
		return nil, err
	}
	macroTables[key] = tbl
	return tbl, nil
}
