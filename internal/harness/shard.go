package harness

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/sim"
)

// EngineMode selects how a run executes: the classic single-threaded event
// loop, or the sharded multi-core engine.
type EngineMode int

const (
	// EngineSequential is the default single-threaded loop — one engine,
	// one goroutine, the bit-exact oracle every other mode is pinned to.
	EngineSequential EngineMode = iota
	// EngineSharded partitions the run into per-cluster shards executing
	// in parallel under a conservative lookahead clock (see sim.Group and
	// DESIGN.md §9). Requires a clustered topology and a system with a
	// sharded builder (SystemEntry.BuildSharded).
	EngineSharded
)

// String returns the mode's configuration name.
func (m EngineMode) String() string {
	switch m {
	case EngineSequential:
		return "sequential"
	case EngineSharded:
		return "sharded"
	}
	return "unknown"
}

// DefaultShards is the shard count when a spec leaves it unset. It is a
// fixed constant, never derived from the host's core count: the shard count
// shapes RNG streams and per-shard recompute coalescing, so it is part of
// the experiment's identity — two machines must agree on it to reproduce
// each other's results. Worker parallelism, which never affects results,
// is the knob that adapts to hardware.
const DefaultShards = 8

// ShardPlan maps a clustered topology onto shards: each shard owns a
// contiguous block of whole clusters, so every intra-cluster link (the only
// mutable, flow-carrying kind) belongs to exactly one shard.
type ShardPlan struct {
	Shards       int
	NodeShard    []int32 // owning shard per node
	ClusterShard []int32 // owning shard per cluster
	Lookahead    float64 // conservative clock lookahead (topology CrossLookahead)
}

// PlanShards derives a shard plan from the topology's cluster assignment.
// shards <= 0 picks DefaultShards; the count is capped at the cluster count
// (a shard must own at least one whole cluster). Topologies without cluster
// metadata (or without a cross-cluster latency floor) cannot be sharded and
// panic.
func PlanShards(topo *netem.Topology, shards int) ShardPlan {
	if topo.Clusters == nil {
		panic("harness: sharded run needs a clustered topology (topology has no cluster assignment)")
	}
	if topo.CrossLookahead <= 0 {
		panic("harness: sharded run needs topology.CrossLookahead > 0 (no cross-cluster latency floor)")
	}
	numClusters := 0
	for i, c := range topo.Clusters {
		if int(c) >= numClusters {
			numClusters = int(c) + 1
		}
		if i > 0 && c < topo.Clusters[i-1] {
			panic("harness: cluster assignment must be non-decreasing (contiguous cluster blocks)")
		}
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > numClusters {
		shards = numClusters
	}
	p := ShardPlan{
		Shards:       shards,
		NodeShard:    make([]int32, len(topo.Clusters)),
		ClusterShard: make([]int32, numClusters),
		Lookahead:    topo.CrossLookahead,
	}
	for c := 0; c < numClusters; c++ {
		p.ClusterShard[c] = int32(c * shards / numClusters)
	}
	for i, c := range topo.Clusters {
		p.NodeShard[i] = p.ClusterShard[c]
	}
	return p
}

// ShardedRig is a sharded run's set of rigs: one topology, one shard group,
// and one Rig per shard (Slots, in shard order). A slot's rig owns its
// shard's engine, network emulator instance, and runtime over the shared
// read-mostly topology; all flows and connections on it stay within its
// owned nodes (the Owns guard enforces it), and the only cross-shard
// channel is the shard's mailbox.
type ShardedRig struct {
	Topo   *netem.Topology
	Plan   ShardPlan
	Group  *sim.Group
	Slots  []*Rig
	Master *sim.RNG
}

// NewShardedRig builds a sharded rig over the topology. Each slot's network
// gets its own RNG stream ("net#<shard>") so results are a function of
// (seed, shard count) and nothing else — in particular not of worker
// goroutine interleaving.
func NewShardedRig(topo *netem.Topology, seed int64, shards int) *ShardedRig {
	plan := PlanShards(topo, shards)
	master := sim.NewRNG(seed)
	engines := make([]*sim.Engine, plan.Shards)
	for k := range engines {
		engines[k] = sim.NewEngine()
	}
	members := make([][]netem.NodeID, plan.Shards)
	for i, k := range plan.NodeShard {
		members[k] = append(members[k], netem.NodeID(i))
	}
	group := sim.NewGroup(engines, plan.Lookahead)
	rig := &ShardedRig{Topo: topo, Plan: plan, Group: group, Master: master}
	rig.Slots = make([]*Rig, plan.Shards)
	for k := range rig.Slots {
		k32 := int32(k)
		slot := newRig(engines[k], topo, master, fmt.Sprintf("net#%d", k), members[k])
		slot.Shard = group.Shard(k)
		slot.Net.Owns = func(id netem.NodeID) bool { return plan.NodeShard[id] == k32 }
		slot.RT.OwnershipHint = func(id netem.NodeID) string {
			return fmt.Sprintf("node %d belongs to shard %d, this runtime serves shard %d",
				id, plan.NodeShard[id], k32)
		}
		rig.Slots[k] = slot
	}
	return rig
}

// runSpecSharded executes one spec on the sharded engine. Sharded systems
// own their dynamics per shard; Check has already rejected scenarios, rig
// dynamics, and streams.
//
// An observed run samples at horizon barriers: instead of one Group.Run to
// the deadline, the group is stepped Run(t), Run(t+TickEvery), … — between
// steps every shard clock sits at exactly t, so OnTick reads a coherent
// cross-shard snapshot. Horizon stepping re-partitions the conservative
// windows but never the event order (the merge key is window-independent),
// and the stepped run still executes to the full deadline, so an observed
// run is bit-identical to an unobserved one.
func runSpecSharded(s SweepSpec) *RunResult {
	topo := s.topology()
	// Only the topology itself knows whether it can shard, and the network
	// registry is open — so sequential-only networks surface here as an
	// error result rather than a PlanShards panic deep in the run.
	if topo.Clusters == nil || topo.CrossLookahead <= 0 {
		return failed(&s, fmt.Errorf("harness: the sharded engine needs a clustered topology "+
			"(this network builds no cluster assignment; pick a clustered preset)"))
	}
	rig := NewShardedRig(topo, s.Seed, s.Shards)
	var stop func() bool
	for _, slot := range rig.Slots {
		stop = s.Hooks.install(slot)
	}
	var shardTracers []*obs.Tracer
	if s.Tracer != nil {
		// Each shard records into a private tracer (no cross-shard
		// synchronization on the hot path); the spans merge into s.Tracer
		// after the run, ordered by (time, shard, shard-local sequence).
		shardTracers = make([]*obs.Tracer, len(rig.Slots))
		for k, slot := range rig.Slots {
			shardTracers[k] = obs.NewTracer(s.Tracer.Capacity())
			slot.RT.Tracer = shardTracers[k]
		}
	}
	e, _ := LookupSystem(s.System)
	sys := e.BuildSharded(rig, s.Workload)
	ticks := s.Hooks.start(rig.Slots, sys)
	sys.Start()
	var stopped bool
	if ticks {
		// Horizon-stepped run: advance every shard to the next sampling
		// barrier, snapshot, repeat. No completion early-exit — the
		// unobserved path below runs to the full deadline too, so EndedAt
		// (and everything else) matches bit for bit.
		every := sim.Time(s.Hooks.TickEvery)
		for t := every; ; t += every {
			if t > s.Deadline {
				t = s.Deadline
			}
			stopped = rig.Group.Run(t, s.Workers, stop)
			if stopped {
				break
			}
			s.Hooks.OnTick(rig.Slots, sys)
			if t >= s.Deadline {
				break
			}
		}
	} else {
		stopped = rig.Group.Run(s.Deadline, s.Workers, stop)
	}
	if s.Tracer != nil {
		s.Tracer.Absorb(shardTracers...)
	}
	return finish(&s, rig.Slots, sys, stopped)
}
