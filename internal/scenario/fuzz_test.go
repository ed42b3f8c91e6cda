package scenario

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzScenarioJSON drives arbitrary documents through Parse and Compile at
// an arbitrary overlay size, then renders the timeline as scenario lint
// does. Scenarios cross the network inside farm specs, so no input may
// panic: a bad document is an error, never a crash.
func FuzzScenarioJSON(f *testing.F) {
	raw, err := os.ReadFile("testdata/mixed.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint16(30))
	// The same scenario with its trace resolved inline, as a farm spec
	// carries it, so the fuzzer starts from a document that compiles.
	s, err := LoadFile("testdata/mixed.json")
	if err != nil {
		f.Fatal(err)
	}
	inline, err := json.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline, uint16(12))
	f.Add([]byte(`{"name":"d","events":[{"kind":"degrade","period":20,"victim_frac":0.5,"factor":0.5,"floor":0.1}]}`), uint16(8))
	f.Add([]byte(`{"name":"w","events":[{"kind":"flashcrowd","waves":[{"at":0,"nodes":[0,1]},{"at":5,"frac":0.5}]}]}`), uint16(2))
	f.Fuzz(func(t *testing.T, doc []byte, n uint16) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		prog, err := s.Compile(int(n))
		if err != nil {
			return
		}
		if prog.N() != int(n) {
			t.Fatalf("compiled for %d nodes, asked %d", prog.N(), n)
		}
		_ = prog.Timeline()
	})
}
