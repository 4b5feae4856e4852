package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Layer attribution of CPU profile samples. Each sample goes to the
// innermost frame that belongs to a named layer, so runtime helpers
// (allocation, map access, memmove) count toward the layer that called
// them. Stacks with no layer frame are the runtime's own: background GC
// work, or scheduler and timer overhead ("other").

// namedLayers are the layers of the estimator and serving stack; the
// traced run must attribute most CPU samples to them.
var namedLayers = []string{"gate", "iss", "cachesim", "master", "accel", "compile", "engine", "serving", "gc"}

var layerOfPackage = map[string]string{
	"repro/internal/gate":     "gate",
	"repro/internal/packed64": "gate",

	"repro/internal/iss":      "iss",
	"repro/internal/compiled": "iss",
	"repro/internal/cachesim": "cachesim",

	"repro/internal/sim":     "master",
	"repro/internal/core":    "master",
	"repro/internal/rtos":    "master",
	"repro/internal/bus":     "master",
	"repro/internal/cfsm":    "master",
	"repro/internal/compact": "master",

	"repro/internal/ecache":     "accel",
	"repro/internal/macromodel": "accel",
	"repro/internal/ecachesync": "accel",
	"repro/internal/audit":      "accel",
	"repro/internal/attrib":     "accel",

	"repro/internal/swsyn":    "compile",
	"repro/internal/systems":  "compile",
	"repro/internal/cfsmtext": "compile",

	"repro/internal/engine":    "engine",
	"repro/pkg/coest":          "engine",
	"repro/internal/telemetry": "engine",

	"repro/internal/serve":        "serving",
	"repro/internal/router":       "serving",
	"repro/pkg/coest/coestapi":    "serving",
	"repro/pkg/coest/coestclient": "serving",
	"net/http":                    "serving",
	"net":                         "serving",
	"net/textproto":               "serving",
	"net/url":                     "serving",
	"internal/poll":               "serving",
	"encoding/json":               "serving",

	"main":            "bench",
	"repro/perfbench": "bench", // the package's name inside its test binary
	"runtime/pprof":   "profiler",
	"compress/flate":  "profiler",
}

// layerOf maps one frame to its layer, "" when the frame belongs to none
// (the runtime, or a standard-library helper whose caller decides).
// Packages that mix layers are split by file: hwsyn's synthesis versus its
// netlist execution, sparc's assembler versus the decoder the ISS uses,
// core's artifact rebinding and cfsm's clone/builder versus the
// co-simulation master, and gate's netlist construction versus evaluation.
func layerOf(fn, file string) string {
	pkg := funcPackage(fn)
	base := filepath.Base(file)
	switch pkg {
	case "repro/internal/hwsyn":
		switch base {
		case "exec.go", "engine.go", "packed.go":
			return "gate"
		}
		return "compile"
	case "repro/internal/sparc":
		if base == "asm.go" || base == "parse.go" {
			return "compile"
		}
		return "iss"
	case "repro/internal/core":
		if base == "artifacts.go" {
			return "engine"
		}
	case "repro/internal/cfsm":
		switch base {
		case "clone.go":
			return "engine"
		case "builder.go":
			return "compile"
		}
	case "repro/internal/gate":
		if base == "verilog.go" || base == "snapshot.go" ||
			strings.Contains(fn, "(*Netlist)") || strings.HasSuffix(fn, ".NewNetlist") {
			return "compile"
		}
	}
	return layerOfPackage[pkg]
}

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/gate.(*Sim).Step" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frame is one function of a sample's stack.
type frame struct{ name, file string }

// attribute sums the profile's CPU nanoseconds per layer.
func attribute(p *cpuProfile) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range p.samples {
		out[stackLayer(p.stack(s.locs))] += float64(s.cpuNS)
	}
	return out
}

// stackLayer picks the layer of one leaf-first stack.
func stackLayer(stack []frame) string {
	for _, f := range stack {
		if l := layerOf(f.name, f.file); l != "" {
			return l
		}
	}
	for _, f := range stack {
		switch f.name {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "other"
}

// cpuProfile is the subset of a pprof profile.proto that layer
// attribution reads: samples as location lists with their CPU time, and
// the locations' (possibly inlined) functions.
type cpuProfile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]frame
}

type profSample struct {
	locs  []uint64 // leaf first
	cpuNS int64
}

func (p *cpuProfile) stack(locs []uint64) []frame {
	var out []frame
	for _, l := range locs {
		for _, fid := range p.locs[l] {
			out = append(out, p.funcs[fid])
		}
	}
	return out
}

// parseCPUProfile decodes a gzipped profile as written by
// runtime/pprof.StartCPUProfile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]frame)}
	type rawFunc struct{ name, file int64 }
	var (
		strs       []string
		funcs      = map[uint64]rawFunc{}
		nTypes     int
		rawSamples []struct {
			locs []uint64
			vals []int64
		}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s struct {
				locs []uint64
				vals []int64
			}
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fids
		case 5: // function
			var id uint64
			var f rawFunc
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// A CPU profile's sample types are [samples/count, cpu/nanoseconds].
	valueIndex := nTypes - 1
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for id, f := range funcs {
		p.funcs[id] = frame{name: str(f.name), file: str(f.file)}
	}
	for _, s := range rawSamples {
		if valueIndex < 0 || valueIndex >= len(s.vals) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		p.samples = append(p.samples, profSample{locs: s.locs, cpuNS: s.vals[valueIndex]})
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. fn receives the
// field number, the value of varint and fixed fields, and the payload of
// length-delimited fields.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (v) or a packed payload.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
