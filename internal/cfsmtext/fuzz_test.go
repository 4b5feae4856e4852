package cfsmtext

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzParseCFSM feeds arbitrary text to Parse, the front end of coest -file
// and of coest.ParseCFSM. Parse must not panic, and what it accepts must
// print to text that parses again, with the same environment-input
// bindings, and prints to the same text: Print is a fixed point after one
// round. The shipped examples seed it, beside the corpus in
// testdata/fuzz/FuzzParseCFSM.
func FuzzParseCFSM(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "dsl", "*.cfsm"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		text := Print(spec.System)
		again, err := Parse("fuzz", text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\n%s", err, text)
		}
		if a, b := envBindings(spec.System), envBindings(again.System); !slices.Equal(a, b) {
			t.Fatalf("environment inputs %q reparse as %q:\n%s", a, b, text)
		}
		if text2 := Print(again.System); text2 != text {
			t.Fatalf("printing the reparsed system changed the text:\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
	})
}

// envBindings lists a system's environment-input bindings, one
// "NAME -> machine.PORT" line each.
func envBindings(sys *core.System) []string {
	var out []string
	for _, name := range sys.Net.EnvInputs() {
		for _, d := range sys.Net.EnvDest(name) {
			m := sys.Net.Machines[d.Machine]
			out = append(out, name+" -> "+m.Name+"."+m.InputNames[d.Port])
		}
	}
	return out
}
