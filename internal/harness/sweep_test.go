package harness

import (
	"fmt"
	"testing"

	"bulletprime/internal/sim"
)

func sweepTestSpecs() []SweepSpec {
	w := Workload{FileBytes: 1e6, BlockSize: 16 * 1024}
	var specs []SweepSpec
	for seed := int64(1); seed <= 4; seed++ {
		specs = append(specs, SweepSpec{
			Label:    fmt.Sprintf("seed%d", seed),
			Seed:     seed,
			TopoFn:   ModelNetTopology(10),
			System:   KindBulletPrime.system(),
			Workload: w,
			Deadline: sim.Time(3600),
		})
	}
	return specs
}

// TestSweepMatchesSequentialRunOne is the parallelism contract: a sweep's
// rigs each run on a private engine, so every cell must reproduce the
// sequential RunOne for its seed exactly — same per-node completion times,
// same byte accounting.
func TestSweepMatchesSequentialRunOne(t *testing.T) {
	specs := sweepTestSpecs()
	par := Sweep(specs, len(specs))
	for i, s := range specs {
		seq := RunOne(s.Label, s.Seed, s.TopoFn, s.Scenario, KindBulletPrime, s.Workload, s.CoreMut, s.Deadline)
		got := par[i]
		if got == nil {
			t.Fatalf("spec %d: nil result", i)
		}
		if got.Finished != seq.Finished {
			t.Fatalf("seed %d: Finished %v vs sequential %v", s.Seed, got.Finished, seq.Finished)
		}
		if got.ControlBytes != seq.ControlBytes || got.DataBytes != seq.DataBytes {
			t.Fatalf("seed %d: byte accounting diverged: (%v,%v) vs (%v,%v)",
				s.Seed, got.ControlBytes, got.DataBytes, seq.ControlBytes, seq.DataBytes)
		}
		if len(got.PerNode) != len(seq.PerNode) {
			t.Fatalf("seed %d: %d completions vs sequential %d", s.Seed, len(got.PerNode), len(seq.PerNode))
		}
		for id, at := range seq.PerNode {
			if got.PerNode[id] != at {
				t.Fatalf("seed %d node %d: completion %v vs sequential %v", s.Seed, id, got.PerNode[id], at)
			}
		}
	}
}

// TestSweepRepeatable checks that two parallel sweeps of the same specs are
// identical to each other, whatever the goroutine interleaving.
func TestSweepRepeatable(t *testing.T) {
	specs := sweepTestSpecs()
	a := Sweep(specs, 2)
	b := Sweep(specs, 4)
	for i := range specs {
		for id, at := range a[i].PerNode {
			if b[i].PerNode[id] != at {
				t.Fatalf("spec %d node %d: %v vs %v across sweeps", i, id, at, b[i].PerNode[id])
			}
		}
	}
}

func TestAggregateCDF(t *testing.T) {
	specs := sweepTestSpecs()
	res := Sweep(specs, 0)
	total := 0
	for _, r := range res {
		total += r.CDF.N()
	}
	agg := AggregateCDF(res)
	if agg.N() != total {
		t.Fatalf("aggregate CDF has %d samples, want %d", agg.N(), total)
	}
	if agg.Worst() <= 0 {
		t.Fatal("aggregate CDF has no positive samples")
	}
}

func TestClusteredTopologyShape(t *testing.T) {
	topo := ClusteredTopology(50, 10)(sim.NewRNG(1).Stream("topo"))
	if topo.N != 50 {
		t.Fatalf("N = %d, want 50", topo.N)
	}
	// Same cluster: fast, clean. Different cluster: scarce.
	if topo.CoreBW(0, 9) <= topo.CoreBW(0, 10) {
		t.Fatalf("intra-cluster bw %v not greater than inter-cluster %v",
			topo.CoreBW(0, 9), topo.CoreBW(0, 10))
	}
	if topo.CoreLoss(0, 9) != 0 {
		t.Fatal("intra-cluster links must be lossless")
	}
}
