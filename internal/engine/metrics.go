package engine

import (
	"time"

	"repro/internal/core"
)

// PointMetrics is the per-point observability record surfaced through
// Options.OnPoint: what one design point cost to estimate and how hard the
// acceleration layers worked for it.
type PointMetrics struct {
	Index int // point index in the sweep grid
	Total int // grid size

	Wall time.Duration // wall time of this point's co-estimation

	ISSInsts  uint64 // instructions retired by the ISS
	GateEvals uint64 // gate-level simulator invocations

	ECacheLookups uint64 // energy-cache lookups (SW + HW)
	ECacheHits    uint64 // energy-cache hits (simulator skipped)

	// CompactionRatio is the bus-trace compaction ratio (items per
	// dispatched item), 1 when compaction was off for this point.
	CompactionRatio float64

	ShadowAudits  uint64 // shadow-audited serves (0 when auditing was off)
	ShadowFlagged uint64 // audited serves past the divergence threshold

	// ErrorBoundJ / ErrorCI95J are the point's worst-case and 95%-CI
	// error-budget bounds in joules, 0 when no acceleration was active.
	ErrorBoundJ float64
	ErrorCI95J  float64

	// Err is the point's failure, nil on success. A failed point carries no
	// estimator metrics.
	Err error
}

// Fill copies the estimator counters out of a finished report into the
// OnPoint record.
func (m *PointMetrics) Fill(rep *core.Report) {
	m.ISSInsts = rep.ISSInsts
	m.GateEvals = rep.GateExecs
	m.ECacheLookups = rep.SWECache.Lookups + rep.HWECache.Lookups
	m.ECacheHits = rep.SWECache.Hits + rep.HWECache.Hits
	m.CompactionRatio = 1
	if rep.BusCompaction != nil {
		m.CompactionRatio = rep.BusCompaction.Stats.CompressionRatio()
	}
	if rep.Audit != nil {
		m.ShadowAudits = rep.Audit.Audits
		m.ShadowFlagged = rep.Audit.Flagged
	}
	if rep.Budget != nil {
		m.ErrorBoundJ = float64(rep.Budget.Bound)
		m.ErrorCI95J = float64(rep.Budget.CI95)
	}
}
