package harness

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func TestPlanShards(t *testing.T) {
	topo := ClusteredTopology(200, 25)(sim.NewRNG(1).Stream("topo")) // 8 clusters
	p := PlanShards(topo, 4)
	if p.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", p.Shards)
	}
	if p.Lookahead != topo.CrossLookahead {
		t.Fatalf("Lookahead = %v, want %v", p.Lookahead, topo.CrossLookahead)
	}
	// Contiguous blocks of whole clusters, 2 clusters per shard here.
	for c := 0; c < 8; c++ {
		if want := int32(c / 2); p.ClusterShard[c] != want {
			t.Fatalf("cluster %d on shard %d, want %d", c, p.ClusterShard[c], want)
		}
	}
	for i := 0; i < 200; i++ {
		if p.NodeShard[i] != p.ClusterShard[i/25] {
			t.Fatalf("node %d shard %d != its cluster's shard %d", i, p.NodeShard[i], p.ClusterShard[i/25])
		}
	}
	// More shards than clusters caps at the cluster count.
	if got := PlanShards(topo, 100).Shards; got != 8 {
		t.Fatalf("shard cap = %d, want 8", got)
	}
	// Unset count picks the fixed default.
	if got := PlanShards(topo, 0).Shards; got != DefaultShards {
		t.Fatalf("default shards = %d, want %d", got, DefaultShards)
	}

	// Topologies without cluster metadata cannot be sharded.
	flat := ModelNetTopology(50)(sim.NewRNG(1).Stream("topo"))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PlanShards on unclustered topology did not panic")
			}
		}()
		PlanShards(flat, 4)
	}()
}

func TestClusteredTopologyValidation(t *testing.T) {
	for _, tc := range []struct{ n, cs int }{{100, 33}, {100, 1}, {0, 25}, {10, 25}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClusteredTopology(%d, %d) did not panic", tc.n, tc.cs)
				}
			}()
			ClusteredTopology(tc.n, tc.cs)
		}()
	}
	// The default cluster size still applies before validation.
	ClusteredTopology(100, 0)
}

func shardedSpec(seed int64, shards, workers int) SweepSpec {
	return SweepSpec{
		Label:    "scalefill/test",
		Seed:     seed,
		TopoFn:   ClusteredTopology(200, 25),
		Workload: Workload{FileBytes: 1.5e6, BlockSize: 16384},
		Deadline: 40,
		System:   "scalefill",
		Engine:   EngineSharded,
		Shards:   shards,
		Workers:  workers,
	}
}

func assertSameResult(t *testing.T, tag string, a, b *RunResult) {
	t.Helper()
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatalf("%s: completion counts differ: %d vs %d", tag, len(a.PerNode), len(b.PerNode))
	}
	for id, at := range a.PerNode {
		bt, ok := b.PerNode[id]
		if !ok {
			t.Fatalf("%s: node %d completed in one run only", tag, id)
		}
		if at != bt {
			t.Fatalf("%s: node %d completion %v vs %v (not bit-identical)", tag, id, at, bt)
		}
	}
	if a.Finished != b.Finished || a.EndedAt != b.EndedAt {
		t.Fatalf("%s: Finished/EndedAt differ: %v/%v vs %v/%v",
			tag, a.Finished, a.EndedAt, b.Finished, b.EndedAt)
	}
}

// TestShardedWorkerEquivalence is the churn-scenario goroutine-interleaving
// pin at the harness level: a full sharded run (flows, waterfill, per-shard
// link churn, cross-shard tokens) executed cooperatively on one goroutine
// (Workers=1) must be bit-identical to the same run on one goroutine per
// shard (Workers=0). It runs in -short mode on purpose — the CI race job
// uses it to catch memory-ordering bugs in the mailbox/clock protocol.
func TestShardedWorkerEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 17, 20260808} {
		serial := RunSpec(shardedSpec(seed, 4, 1))
		parallel := RunSpec(shardedSpec(seed, 4, 0))
		if len(serial.PerNode) == 0 {
			t.Fatalf("seed %d: no nodes completed; equivalence test is vacuous", seed)
		}
		if !serial.Finished {
			t.Fatalf("seed %d: run did not finish before the deadline", seed)
		}
		assertSameResult(t, "workers 1 vs N", serial, parallel)
	}
}

// TestShardedShardCountChangesResults documents the contract: the shard
// count is part of the experiment's identity (per-shard RNG streams and
// recompute coalescing), so K=2 and K=4 are different experiments.
func TestShardedShardCountChangesResults(t *testing.T) {
	a := RunSpec(shardedSpec(5, 2, 1))
	b := RunSpec(shardedSpec(5, 4, 1))
	same := len(a.PerNode) == len(b.PerNode)
	if same {
		for id, at := range a.PerNode {
			if bt, ok := b.PerNode[id]; !ok || bt != at {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("K=2 and K=4 produced identical results; the shard count should matter")
	}
}

// TestShardedSingleShard pins the degenerate K=1 case: everything local, no
// cross posts, still a valid run.
func TestShardedSingleShard(t *testing.T) {
	res := RunSpec(shardedSpec(3, 1, 0))
	if !res.Finished || len(res.PerNode) != 200 {
		t.Fatalf("K=1 sharded run: finished=%v completions=%d", res.Finished, len(res.PerNode))
	}
}

// TestShardedHooks pins the one hook contract on the sharded engine:
// OnStart sees every shard's rig in shard order, OnTick fires at horizon
// barriers where all shard clocks agree, and sampling leaves the result
// bit-identical to the unobserved run.
func TestShardedHooks(t *testing.T) {
	oracle := RunSpec(shardedSpec(1, 4, 1))
	spec := shardedSpec(1, 4, 1)
	var started, ticks int
	spec.Hooks = &Hooks{
		OnStart: func(rigs []*Rig, sys System) {
			started++
			if len(rigs) != 4 {
				t.Fatalf("OnStart saw %d rigs, want 4", len(rigs))
			}
			for k, r := range rigs {
				if r.Shard == nil || r.Shard.ID() != k {
					t.Fatalf("rig %d is not shard %d", k, k)
				}
			}
		},
		TickEvery: 2,
		OnTick: func(rigs []*Rig, sys System) {
			ticks++
			want := sim.Time(2 * ticks)
			for k, r := range rigs {
				if r.Eng.Now() != want {
					t.Fatalf("tick %d: shard %d clock %v, want %v", ticks, k, r.Eng.Now(), want)
				}
			}
		},
	}
	res := RunSpec(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if started != 1 || ticks != 20 {
		t.Fatalf("OnStart fired %d times, OnTick %d times; want 1 and 20 (deadline 40, every 2)", started, ticks)
	}
	assertSameResult(t, "observed vs unobserved", oracle, res)
}

// TestShardedStopHook checks cancellation plumbing: Hooks.Stop ends the run
// early and marks the result.
func TestShardedStopHook(t *testing.T) {
	polls := 0
	spec := shardedSpec(1, 4, 1)
	spec.Hooks = &Hooks{Stop: func() bool { polls++; return polls > 3 }}
	res := RunSpec(spec)
	if !res.Stopped || res.Finished {
		t.Fatalf("Stopped=%v Finished=%v, want stopped and unfinished", res.Stopped, res.Finished)
	}
}

// TestShardedCrossShardFlowPanics checks the ownership guard end to end: a
// flow between nodes of different shards must refuse to build.
func TestShardedCrossShardFlowPanics(t *testing.T) {
	topo := ClusteredTopology(200, 25)(sim.NewRNG(1).Stream("topo"))
	rig := NewShardedRig(topo, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard NewFlow did not panic")
		}
	}()
	rig.Slots[0].Net.NewFlow(netem.NodeID(0), netem.NodeID(199))
}
