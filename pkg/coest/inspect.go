package coest

import (
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
