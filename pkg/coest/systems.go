package coest

import (
	"fmt"

	"repro/internal/cfsmtext"
	"repro/internal/systems"
)

// Case-study parameter types, re-exported.
type (
	// TCPIPParams sizes and shapes the Fig 5 TCP/IP checksum subsystem.
	TCPIPParams = systems.TCPIPParams
	// ProdConsParams sizes the Fig 1 producer/timer/consumer example.
	ProdConsParams = systems.ProdConsParams
	// AutomotiveParams sizes the dashboard-controller case study.
	AutomotiveParams = systems.AutoParams
)

// Default case-study parameters.
func DefaultTCPIPParams() TCPIPParams           { return systems.DefaultTCPIP() }
func DefaultProdConsParams() ProdConsParams     { return systems.DefaultProdCons() }
func DefaultAutomotiveParams() AutomotiveParams { return systems.DefaultAutomotive() }

// TCPIP builds the paper's network-interface checksum subsystem (Fig 5):
// three processes around a shared bus, the sweepable priority/DMA axes of
// Tables 1-2 and Fig 7.
func TCPIP(p TCPIPParams) *System { return newSystem(systems.TCPIP(p)) }

// ProdCons builds the producer/timer/consumer motivation example of Fig 1,
// whose consumer the separate-estimation baseline under-estimates.
func ProdCons(p ProdConsParams) *System { return newSystem(systems.ProdCons(p)) }

// Automotive builds the automotive dashboard-controller case study.
func Automotive(p AutomotiveParams) *System { return newSystem(systems.Automotive(p)) }

// BySystemName builds a named case-study system with its default
// parameters: "tcpip", "prodcons" or "automotive".
func BySystemName(name string) (*System, error) {
	switch name {
	case "tcpip":
		return TCPIP(DefaultTCPIPParams()), nil
	case "prodcons":
		return ProdCons(DefaultProdConsParams()), nil
	case "automotive":
		return Automotive(DefaultAutomotiveParams()), nil
	}
	return nil, fmt.Errorf("coest: unknown system %q (want tcpip, prodcons or automotive)", name)
}

// ParseCFSM parses a system written in the textual CFSM language (the
// .cfsm front-end) and wraps it with the reference configuration.
func ParseCFSM(name, source string) (*System, error) {
	spec, err := cfsmtext.Parse(name, source)
	if err != nil {
		return nil, err
	}
	return New(spec.System), nil
}

// PrintCFSM renders the system back into the textual CFSM language — the
// round-trip counterpart of ParseCFSM.
func PrintCFSM(sys *System) string { return cfsmtext.Print(sys.spec) }

// TCPIPGrid is the Fig 7 style design-space grid: every bus-master priority
// permutation crossed with every DMA block size, perm-major. Use with
// Sweep.
//
// The grid builds the network and its packet arrivals once; each point
// gets its own priorities and DMA size, which are configuration, not
// synthesis input. So a sweep of the grid compiles the design once, and
// replays the checksum block's executions that repeat from point to point.
func TCPIPGrid(p TCPIPParams, perms, dmaSizes []int) Grid {
	base := systems.TCPIPNet(p)
	return Grid{
		N: len(perms) * len(dmaSizes),
		Build: func(i int) (*System, error) {
			pt := p
			pt.PriorityPerm = perms[i/len(dmaSizes)]
			pt.DMASize = dmaSizes[i%len(dmaSizes)]
			spec := *base
			spec.Procs = systems.TCPIPProcs(pt.PriorityPerm)
			return newSystem(&spec, systems.TCPIPConfig(pt)), nil
		},
	}
}
