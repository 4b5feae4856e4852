package cfsmtext

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/units"
)

// Round trip: Print(Parse(src)) must reparse into a behaviorally identical
// system (same reactions on the same inputs).
func TestPrintParseRoundTrip(t *testing.T) {
	spec, err := Parse("counter-demo", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(spec.System)
	spec2, err := Parse("counter-demo", text)
	if err != nil {
		t.Fatalf("printed text does not reparse: %v\n%s", err, text)
	}

	run := func(sys *core.System) []cfsm.Value {
		m := sys.Net.Machines[sys.Net.MachineIndex("counter")]
		m.Reset()
		var out []cfsm.Value
		for i := 0; i < 25; i++ {
			m.Post(0, 1)
			r, ok := m.React(cfsm.NullEnv{})
			if !ok {
				t.Fatal("no reaction")
			}
			for _, e := range r.Emits {
				out = append(out, e.Value)
			}
		}
		return out
	}
	a, b := run(spec.System), run(spec2.System)
	if len(a) != len(b) {
		t.Fatalf("emission counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emissions differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Partition and wiring survive.
	if spec2.System.Procs["alarm"].Mapping != core.HW {
		t.Fatal("partition lost in round trip")
	}
}

// An environment input that no stimulus drives is still part of the
// network: counterSrc wires PULSE to the counter and has no stimulus.
func TestPrintKeepsEnvInputsWithoutStimulus(t *testing.T) {
	spec, err := Parse("counter-demo", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(spec.System)
	again, err := Parse("counter-demo", text)
	if err != nil {
		t.Fatalf("printed text does not reparse: %v\n%s", err, text)
	}
	want := []string{"PULSE -> counter.PULSE"}
	if got := envBindings(again.System); !slices.Equal(got, want) {
		t.Fatalf("reparsed environment inputs %q, want %q:\n%s", got, want, text)
	}
}

// Programmatically built systems export to text and reparse, preserving the
// full co-estimation behavior (prodcons: same report energies).
func TestPrintProgrammaticSystem(t *testing.T) {
	p := systems.DefaultProdCons()
	sys, cfg := systems.ProdCons(p)
	text := Print(sys)

	spec, err := Parse("prodcons", text)
	if err != nil {
		t.Fatalf("exported prodcons does not reparse: %v\n%s", err, text)
	}
	// Carry over the stimuli rendering check.
	if len(spec.System.Stimuli) != len(sys.Stimuli) ||
		len(spec.System.Periodic) != len(sys.Periodic) {
		t.Fatalf("stimuli lost: %d/%d vs %d/%d",
			len(spec.System.Stimuli), len(spec.System.Periodic),
			len(sys.Stimuli), len(sys.Periodic))
	}

	run := func(s *core.System) units.Energy {
		s.Net.Reset()
		cs, err := core.New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cs.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	orig := run(sys)
	reparsed := run(spec.System)
	if orig != reparsed {
		t.Fatalf("round-tripped system estimates differently: %v vs %v", orig, reparsed)
	}
}

func TestPrintContainsLanguageConstructs(t *testing.T) {
	sys, _ := systems.TCPIP(systems.DefaultTCPIP())
	text := Print(sys)
	for _, want := range []string{
		"machine create_pack {",
		"repeat (",
		"if (",
		"mem[",
		":= mem[",
		"emit PKT_RDY(",
		"-> wait;",
		"connect ip_check.CHK_REQ -> checksum.CHK_REQ;",
		"map checksum hw",
		"env output ip_check.PKT_OK as PKT_OK;",
		"stimulus PKT_IN at",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("export missing %q:\n%s", want, text)
		}
	}
}

// All three built-in systems export and reparse.
func TestPrintAllBuiltinSystems(t *testing.T) {
	cases := []struct {
		name string
		sys  *core.System
	}{}
	{
		s, _ := systems.ProdCons(systems.DefaultProdCons())
		cases = append(cases, struct {
			name string
			sys  *core.System
		}{"prodcons", s})
	}
	{
		s, _ := systems.TCPIP(systems.DefaultTCPIP())
		cases = append(cases, struct {
			name string
			sys  *core.System
		}{"tcpip", s})
	}
	{
		s, _ := systems.Automotive(systems.DefaultAutomotive())
		cases = append(cases, struct {
			name string
			sys  *core.System
		}{"automotive", s})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := Print(c.sys)
			spec, err := Parse(c.name, text)
			if err != nil {
				t.Fatalf("%v\n%s", err, text)
			}
			if len(spec.System.Net.Machines) != len(c.sys.Net.Machines) {
				t.Fatal("machine count changed")
			}
			for name, pc := range c.sys.Procs {
				if spec.System.Procs[name] != pc {
					t.Fatalf("partition changed for %s", name)
				}
			}
		})
	}
}
