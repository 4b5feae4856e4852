package core

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/hwsyn"
	"repro/internal/swsyn"
)

// ArtifactsState is the serializable form of a session's compiled
// artifacts: the SPARC image and per-machine gate modules with their
// machine references reduced to names. Paired with a deterministically
// rebuilt System spec, ArtifactsFromState reconstructs warm Artifacts on a
// fresh process without invoking swsyn.Compile or hwsyn.Synthesize — the
// compile counters stay flat, which is the whole point of shipping
// snapshots between fleet shards.
type ArtifactsState struct {
	HWWidth int
	Image   *swsyn.CompiledState
	HW      map[string]hwsyn.ModuleState
}

// State exports the artifacts for serialization.
func (a *Artifacts) State() ArtifactsState {
	st := ArtifactsState{HWWidth: a.HWWidth}
	if a.Image != nil {
		img := a.Image.State()
		st.Image = &img
	}
	if len(a.HW) > 0 {
		st.HW = make(map[string]hwsyn.ModuleState, len(a.HW))
		for name, mod := range a.HW {
			st.HW[name] = mod.State()
		}
	}
	return st
}

// ArtifactsFromState rebuilds artifacts from their exported state, bound to
// the machines of sys (matched by name). sys must be the same design the
// snapshot was taken from — same machine names, same transition counts —
// which holds when both sides construct it from the same named system
// specification.
func ArtifactsFromState(st ArtifactsState, sys *System) (*Artifacts, error) {
	byName := make(map[string]*cfsm.CFSM, len(sys.Net.Machines))
	for _, m := range sys.Net.Machines {
		byName[m.Name] = m
	}
	a := &Artifacts{HWWidth: st.HWWidth}
	if st.Image != nil {
		img, err := swsyn.CompiledFromState(*st.Image, byName)
		if err != nil {
			return nil, err
		}
		a.Image = img
	}
	if len(st.HW) > 0 {
		a.HW = make(map[string]*hwsyn.Module, len(st.HW))
		for name, ms := range st.HW {
			m, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("core: snapshot HW module %q not present in the restored system", name)
			}
			mod, err := hwsyn.ModuleFromState(ms, m)
			if err != nil {
				return nil, err
			}
			a.HW[name] = mod
		}
	}
	return a, nil
}
