package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"

	"bulletprime"
)

func TestLayerOfHandBuiltStacks(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"standard-library sort called from netem", []string{
			"slices.pdqsortCmpFunc[go.shape.struct { bulletprime/internal/sim.T float64 }]",
			"slices.SortFunc[go.shape.[]bulletprime/internal/netem.Flow]",
			"bulletprime/internal/netem.(*Network).activeFlows",
			"bulletprime/internal/netem.(*Network).recompute",
			"bulletprime/internal/sim.(*Engine).Run",
		}, "netem"},
		{"bare GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "runtime"},
		{"allocation in the root package", []string{
			"runtime.mallocgc", "runtime.makemap", "bulletprime.toResult", "bulletprime.(*Experiment).run",
		}, "facade"},
		{"closure inside a layer", []string{
			"bulletprime/internal/core.(*peer).onMessage.func2", "bulletprime/internal/proto.(*Runtime).deliver",
		}, "core"},
		{"internal package outside the named layers", []string{
			"bulletprime/internal/fountain.(*Encoder).Next", "bulletprime/internal/core.(*peer).send",
		}, "other"},
		{"the benchmark's own code", []string{"encoding/json.Marshal", "main.writeResult", "main.main"}, "runtime"},
		{"no frames", nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestProfileSplitSumsToTotal decodes a real allocation profile, taken
// after a small experiment, and checks that every sample lands in exactly
// one layer.
func TestProfileSplitSumsToTotal(t *testing.T) {
	if _, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 8, FileBytes: 2e5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	path := filepath.Join(t.TempDir(), "allocs.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	split, total, err := p.byLayer("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, v := range split {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("sample charged to unknown layer %q", l)
		}
		sum += v
	}
	if total <= 0 || sum != total {
		t.Fatalf("layers sum to %d, profile total %d", sum, total)
	}
	if split["netem"] <= 0 && split["sim"] <= 0 && split["core"] <= 0 {
		t.Errorf("no allocation charged to the simulator's layers: %v", split)
	}
	if _, _, err := p.byLayer("cpu"); err == nil {
		t.Error("an allocation profile reported cpu samples")
	}
}
