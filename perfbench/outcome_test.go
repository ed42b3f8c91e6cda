package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestPrimaryAndHeldOutSeedsArePinned(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if refs.PrimarySeed == refs.HeldOutSeed {
		t.Fatalf("primary and held-out seed are both %d", refs.PrimarySeed)
	}
	for _, w := range workloads {
		for _, seed := range []int64{refs.PrimarySeed, refs.HeldOutSeed} {
			if o, ok := refs.pinned(w.name, seed); !ok || len(o) == 0 {
				t.Errorf("%s: no reference pinned for seed %d", w.name, seed)
			}
		}
	}
}

// TestEveryPinnedFieldIsChecked perturbs each pinned field of a reference
// in turn and expects exactly that run to fail.
func TestEveryPinnedFieldIsChecked(t *testing.T) {
	ref := []outcome{
		{Cell: "bulletprime/modelnet", Finished: true, Elapsed: 61.5, Completions: 99, Median: 40.25, Worst: 61.5, ControlOverhead: 0.03},
		{Cell: "bulletprime/modelnet-clean", Finished: true, Elapsed: 75, Completions: 499, Median: 31, Worst: 44, ControlOverhead: 0.04,
			Stream: &streamOutcome{Live: 499, LagP50: 3.5, Rebuffers: 54}},
	}
	perturb := map[string]func(o *outcome){
		"finished":         func(o *outcome) { o.Finished = false },
		"elapsed":          func(o *outcome) { o.Elapsed = math.Nextafter(o.Elapsed, math.Inf(1)) },
		"completions":      func(o *outcome) { o.Completions-- },
		"median":           func(o *outcome) { o.Median = math.Nextafter(o.Median, 0) },
		"worst":            func(o *outcome) { o.Worst += 1e-9 },
		"control_overhead": func(o *outcome) { o.ControlOverhead *= 1.0000001 },
		"stream live":      func(o *outcome) { o.Stream.Live-- },
		"stream lag":       func(o *outcome) { o.Stream.LagP50 = math.Nextafter(o.Stream.LagP50, 0) },
		"stream rebuffers": func(o *outcome) { o.Stream.Rebuffers++ },
	}
	if bad, why := checkOutcomes(ref, ref); bad[0] || bad[1] || len(why) > 0 {
		t.Fatalf("identical outcomes reported as failures: %v", why)
	}
	for name, f := range perturb {
		want := []outcome{ref[0], ref[1]}
		s := *ref[1].Stream
		want[1].Stream = &s
		f(&want[1])
		bad, why := checkOutcomes(ref, want)
		if bad[0] || !bad[1] || len(why) == 0 {
			t.Errorf("perturbed %s: failed runs %v, reasons %v", name, bad, why)
		}
	}
	if bad, _ := checkOutcomes(ref[:1], ref); !bad[0] {
		t.Error("a pass with a missing run was not reported as failed")
	}
}

// TestPinnedReferenceAtThisCommit runs the first input of stream-500 on the
// primary seed: it must match its pinned reference, and a perturbed
// reference must be reported as a failed run by the benchmark itself.
func TestPinnedReferenceAtThisCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 500-node stream twice")
	}
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("stream-500")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := refs.pinned(w.name, refs.PrimarySeed)
	if !ok {
		t.Fatal("no pinned reference for the primary seed")
	}
	w.inputs, want = 1, want[:1]
	b := &bench{w: w, seed: refs.PrimarySeed, tmp: t.TempDir(), want: want}
	if _, err := b.run(0, false); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || len(b.problems) > 0 {
		t.Fatalf("%d of %d runs failed against the pinned reference: %v", b.failed, b.attempted, b.problems)
	}

	perturbed := append([]outcome(nil), want...)
	perturbed[0].Elapsed = math.Nextafter(perturbed[0].Elapsed, 0)
	b = &bench{w: w, seed: refs.PrimarySeed, tmp: t.TempDir(), want: perturbed}
	if _, err := b.run(0, false); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 || len(b.problems) == 0 || !strings.Contains(b.problems[0], "elapsed") {
		t.Fatalf("perturbed reference: %d failed runs, problems %v; want 1 failed run on elapsed", b.failed, b.problems)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program reports
// and the ones BENCHMARK.json declares the same lists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), ws},
		{"end_to_end", names(spec.EndToEnd), endToEndNames},
		{"per_layer", names(spec.PerLayer), perLayerNames()},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the program reports %v", c.what, c.got, c.want)
		}
	}
}
