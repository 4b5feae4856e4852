package engine

import (
	"fmt"
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

// ECacheHitRate returns hits/lookups, 0 when the cache was never consulted.
func (m PointMetrics) ECacheHitRate() float64 {
	if m.ECacheLookups == 0 {
		return 0
	}
	return float64(m.ECacheHits) / float64(m.ECacheLookups)
}

// String renders a compact single-line progress record. A point that never
// consulted the energy cache prints "ecache off" — a 0% hit rate means the
// cache ran and missed, which is a different situation than not caching.
func (m PointMetrics) String() string {
	if m.Err != nil {
		return fmt.Sprintf("point %d/%d failed after %v: %v", m.Index+1, m.Total, m.Wall.Round(time.Millisecond), m.Err)
	}
	ecache := "ecache off"
	if m.ECacheLookups > 0 {
		ecache = fmt.Sprintf("ecache %.0f%%", m.ECacheHitRate()*100)
	}
	return fmt.Sprintf("point %d/%d in %v: %d ISS insts, %d gate evals, %s, compaction %.1fx",
		m.Index+1, m.Total, m.Wall.Round(time.Millisecond),
		m.ISSInsts, m.GateEvals, ecache, m.CompactionRatio)
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
