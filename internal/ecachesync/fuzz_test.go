package ecachesync

import (
	"reflect"
	"testing"
)

// FuzzSync posts arbitrary bodies to the store's HTTP handler, on a store
// primed with one real shard push. It must never panic; a body it accepts
// must leave only statistics that pass stats.RunningState.Validate, and a
// body it refuses with 400 must leave the store unchanged. The seeds in
// testdata/fuzz/FuzzSync — a real shard push, each invalid state, a pair of
// means that merge to infinity, a wrapping count and a duplicate-seq
// retry — run under plain go test.
func FuzzSync(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		mem := primedStore(t)
		before := dumpAll(mem)
		switch code := postSync(Handler(mem), body); code {
		case 200:
			for scope, paths := range dumpAll(mem) {
				for _, ps := range paths {
					if err := ps.Energy.Validate(); err != nil {
						t.Fatalf("accepted body left scope %v path %v with %v", scope, ps.Key, err)
					}
					if err := ps.Cycles.Validate(); err != nil {
						t.Fatalf("accepted body left scope %v path %v with %v", scope, ps.Key, err)
					}
				}
			}
		case 400:
			if after := dumpAll(mem); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused body changed the store:\n got %+v\nwant %+v", after, before)
			}
		default:
			t.Fatalf("status %d, want 200 or 400", code)
		}
	})
}
