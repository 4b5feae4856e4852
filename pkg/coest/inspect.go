package coest

import (
	"context"
	"io"

	"repro/internal/ecache"
	"repro/internal/gate"
	"repro/internal/paramfile"
	"repro/internal/sparc"
)

// Synthesis-artifact types, re-exported for inspection tooling.
type (
	// Program is the synthesized SPARC image of the software partition.
	Program = sparc.Program
	// Netlist is a synthesized gate-level netlist of a hardware process.
	Netlist = gate.Netlist
	// CachePathReport is one energy-cache path snapshot row (Fig 4c).
	CachePathReport = ecache.PathReport
	// ParamFile is a parsed POLIS-style macro-model parameter file (Fig 3).
	ParamFile = paramfile.File
)

// ParseParamFile reads a macro-model parameter file (the Fig 3 artifact
// written by the characterization flow). Feed it to WithMacroModelParams.
func ParseParamFile(r io.Reader) (*ParamFile, error) { return paramfile.Parse(r) }

// Compiled is a built-but-not-yet-run co-estimation: the system has been
// partitioned and synthesized (software compiled to a SPARC image, hardware
// to gate netlists), so the artifacts can be inspected before — or instead
// of — running the estimation. Obtain one with Compile.
//
// Compiled is a thin view over a Session: it is reusable (the historic
// single-use restriction is gone — each Estimate call rebinds the compiled
// artifacts to a fresh network clone) and safe for concurrent use.
type Compiled struct {
	sess *Session
}

// Compile builds the system under the resolved options without running it.
// Compile accepts config-scope options only; run-level options fail with
// ErrOptionScope.
func Compile(sys *System, opts ...Option) (*Compiled, error) {
	sess, err := NewSession(sys, opts...)
	if err != nil {
		return nil, err
	}
	return &Compiled{sess: sess}, nil
}

// Session exposes the warm session behind the compilation, for callers that
// outgrow the Compiled view (batching, persistent caches).
func (c *Compiled) Session() *Session { return c.sess }

// Config returns the fully resolved run configuration (a private copy).
func (c *Compiled) Config() RunConfig { return c.sess.Config() }

// SWProgram returns the synthesized SPARC program image of the software
// partition, or nil when no process maps to software.
func (c *Compiled) SWProgram() *Program { return c.sess.SWProgram() }

// HWNetlists returns the synthesized gate-level netlist of every hardware
// process, keyed by machine name.
func (c *Compiled) HWNetlists() map[string]*Netlist { return c.sess.HWNetlists() }

// SWCacheReport returns the software energy-cache path snapshot of the most
// recent run (nil before the first run or unless the energy cache was
// enabled).
func (c *Compiled) SWCacheReport() []CachePathReport { return c.sess.SWCacheReport() }

// Estimate runs the compiled co-estimation and returns the report. It
// accepts the same option list as coest.Estimate — config-scope options
// refining this run on top of the compile-time configuration (run-level
// options fail with ErrOptionScope) — and may be called repeatedly and
// concurrently.
func (c *Compiled) Estimate(ctx context.Context, opts ...Option) (*Report, error) {
	return c.sess.Estimate(ctx, opts...)
}
