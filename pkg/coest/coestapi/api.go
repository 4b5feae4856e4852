// Package coestapi is the versioned HTTP/JSON wire contract of the
// co-estimation service: the request/response types served by coestd
// (internal/serve), routed by coest-router (internal/router) and consumed
// by the coestclient library and the coest -serve CLI. One package owns the
// shapes so daemon, router and clients cannot drift.
//
// Versioning: every request may carry a Version ("v1", or "v1.<minor>").
// An empty version means the current major. Servers accept any minor of a
// major they speak and reject unknown majors with 400 and the
// CodeUnsupportedVersion error envelope; responses always echo the server's
// exact version, so clients can detect minor skew.
package coestapi

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is the wire version this package defines (major "v1").
const (
	Version      = "v1"
	MajorVersion = 1
)

// CheckVersion validates a request's version string: "" and any "v1[.x]"
// pass, anything else fails with an error suitable for a 400 body.
func CheckVersion(v string) error {
	if v == "" {
		return nil
	}
	s := strings.TrimPrefix(v, "v")
	if s == v {
		return fmt.Errorf("coestapi: malformed version %q (want v<major>[.<minor>])", v)
	}
	major, _, _ := strings.Cut(s, ".")
	n, err := strconv.Atoi(major)
	if err != nil {
		return fmt.Errorf("coestapi: malformed version %q (want v<major>[.<minor>])", v)
	}
	if n != MajorVersion {
		return fmt.Errorf("coestapi: unsupported version %q (this server speaks %s)", v, Version)
	}
	return nil
}

// MaxBodyBytes bounds every request body the service reads, at a shard and
// at the router: a larger body is refused with 413 and the CodeBadRequest
// envelope before it is decoded. A snapshot envelope of the largest design
// in the repository is about 2 KB.
const MaxBodyBytes = 1 << 20

// Trace-propagation headers: the response always carries the request's
// trace id; inbound values are adopted so the router can stitch one logical
// request across fleet nodes.
const (
	// TraceHeader carries the 32-hex-digit trace id.
	TraceHeader = "X-Coest-Trace-Id"
	// ParentSpanHeader carries the caller's span id (hex) — the receiving
	// node's root request span parents under it.
	ParentSpanHeader = "X-Coest-Parent-Span"
)

// Request asks for the co-estimation of one design under one or more
// configuration points. Points in a single request are coalesced into one
// batched sweep on the design's warm session; an empty point list estimates
// the baseline configuration once.
type Request struct {
	// Version is the wire version the client speaks ("" = current major).
	Version string `json:"version,omitempty"`
	// System names the design: "tcpip" (default), "prodcons" or
	// "automotive".
	System string `json:"system,omitempty"`
	// Packets sizes the tcpip stimulus (0 = the case-study default). It is
	// part of the session key: designs with different packet counts compile
	// to different stimuli.
	Packets int `json:"packets,omitempty"`
	// DeadlineMS bounds the request's wall-clock time in milliseconds
	// (0 = the server default). On expiry in-flight simulation aborts
	// mid-run and the request fails with 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Points are the configuration points to estimate.
	Points []PointSpec `json:"points,omitempty"`
}

// PointSpec is one configuration point: the sweepable knobs of the public
// estimator API in wire form. The zero value is the baseline configuration.
type PointSpec struct {
	// DMASize sets the DMA transfer size in words (0 = no DMA refinement;
	// negative values are rejected by the estimator and surface as the
	// point's error).
	DMASize int `json:"dma_size,omitempty"`
	// ECache enables the §4.2 energy/delay cache. Cache state persists in
	// the session across requests — and, when the node syncs with a fleet
	// cache tier, across nodes.
	ECache bool `json:"ecache,omitempty"`
	// Macro enables §4.1 macro-model estimation (shared characterization
	// tables; no per-request recharacterization).
	Macro bool `json:"macro,omitempty"`
	// Sampling enables §4.3 statistical sampling.
	Sampling bool `json:"sampling,omitempty"`
	// MaxSimTimeNS truncates the simulation at this simulated time
	// (nanoseconds; 0 = the configuration default).
	MaxSimTimeNS int64 `json:"max_sim_time_ns,omitempty"`
}

// ErrorBudget is the wire form of a run's accumulated error budget — how
// far the point's enabled accelerations may have strayed from the
// reference estimate.
type ErrorBudget struct {
	// TotalJ is the reported total energy the bounds are relative to.
	TotalJ float64 `json:"total_j"`
	// BoundJ is the worst-case absolute error bound in joules.
	BoundJ float64 `json:"bound_j"`
	// CI95J is the 95% statistical bound in joules.
	CI95J float64 `json:"ci95_j"`
	// Uncalibrated is true when some active technique exposed no error
	// signal; the bounds are then a floor, not a ceiling.
	Uncalibrated bool `json:"uncalibrated,omitempty"`
}

// PointResult is the outcome of one configuration point. Exactly one of
// Error or the result fields is meaningful.
type PointResult struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`

	// Energies in joules. JSON's shortest-round-trip float encoding keeps
	// them bit-identical to the estimator's own float64 values.
	TotalJ float64 `json:"total_j,omitempty"`
	SWJ    float64 `json:"sw_j,omitempty"`
	HWJ    float64 `json:"hw_j,omitempty"`

	SimulatedNS int64  `json:"simulated_ns,omitempty"`
	ISSCalls    uint64 `json:"iss_calls,omitempty"`
	ISSInsts    uint64 `json:"iss_insts,omitempty"`

	// Budget carries the point's error budget whenever its accelerations
	// accumulated one.
	Budget *ErrorBudget `json:"budget,omitempty"`
}

// Response is the reply to one Request.
type Response struct {
	// Version is the server's exact wire version ("v1").
	Version string `json:"version"`
	System  string `json:"system"`
	// Shard is the serving node's configured name (empty on unnamed
	// nodes). The router preserves it, so clients observe which shard of
	// the fleet answered — and that a design sticks to its shard.
	Shard string `json:"shard,omitempty"`
	// TraceID echoes the request's trace id (also on the X-Coest-Trace-Id
	// response header); empty when tracing is disabled. Feed it to
	// /debug/requests?trace= for the span tree, &format=chrome for a
	// flame graph.
	TraceID string `json:"trace_id,omitempty"`
	// Warm reports whether the request hit an existing session: true means
	// zero recompilation, resynthesis or recharacterization happened.
	Warm   bool          `json:"warm"`
	Points []PointResult `json:"points"`
}

// SnapshotRequest selects which warm session POST /snapshot serializes.
type SnapshotRequest struct {
	Version string `json:"version,omitempty"`
	System  string `json:"system,omitempty"`
	Packets int    `json:"packets,omitempty"`
}

// SnapshotEnvelope is the binary body served by POST /snapshot and accepted
// by POST /restore, gob-encoded: the design identity in the clear (so a
// router can route a restore to the design's owning shard without opening
// the blob) plus the opaque session snapshot, which carries its own magic
// and format version.
type SnapshotEnvelope struct {
	System  string
	Packets int
	Blob    []byte
}

// RestoreResponse acknowledges a POST /restore: which design the snapshot
// carried and how much learned state came with it.
type RestoreResponse struct {
	Version string `json:"version"`
	System  string `json:"system"`
	Packets int    `json:"packets,omitempty"`
	// Paths is the number of energy-cache path entries restored.
	Paths int `json:"paths"`
}
