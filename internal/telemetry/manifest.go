package telemetry

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// PhaseTiming records the wall time of one named phase of a run
// (characterization, sweep, render, ...).
type PhaseTiming struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Wall   string `json:"wall"` // human-readable duplicate
}

// Manifest is the run manifest written alongside sweep output: what was
// run (tool, arguments, configuration snapshot, seed), on what (Go
// version, module version/VCS revision, host shape), and what it cost
// (per-phase wall timings). It makes a sweep's artifacts reproducible and
// attributable after the fact.
type Manifest struct {
	Tool      string    `json:"tool"`
	Args      []string  `json:"args,omitempty"`
	Start     time.Time `json:"start"`
	GoVersion string    `json:"go_version"`
	Module    string    `json:"module,omitempty"`
	Revision  string    `json:"vcs_revision,omitempty"`
	OS        string    `json:"os"`
	Arch      string    `json:"arch"`
	CPUs      int       `json:"cpus"`

	// Seed is the workload's RNG seed when one exists; co-estimations are
	// deterministic, so most runs leave it zero.
	Seed int64 `json:"seed,omitempty"`

	// Config is the tool-specific configuration snapshot (flag values,
	// sweep axes, acceleration settings).
	Config any `json:"config,omitempty"`

	Phases []PhaseTiming `json:"phases,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping the start
// time, toolchain and host.
func NewManifest(tool string, args []string, config any) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Args:      args,
		Start:     time.Now(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Config:    config,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Revision = s.Value
			}
		}
	}
	return m
}

// Phase starts a named phase and returns its stop function; call it when
// the phase completes to record the wall time.
func (m *Manifest) Phase(name string) (done func()) {
	start := time.Now()
	return func() {
		d := time.Since(start)
		m.Phases = append(m.Phases, PhaseTiming{Name: name, WallNS: d.Nanoseconds(), Wall: d.String()})
	}
}

// JSON renders the manifest as indented JSON.
func (m *Manifest) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteFile writes the manifest JSON to path.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
