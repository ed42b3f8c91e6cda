package netem

import (
	"fmt"
	"slices"
	"testing"

	"bulletprime/internal/sim"
)

// rebuiltPartition is the from-scratch decomposition of the active-flow set
// into connected components: the oracle the maintained partition is checked
// against.
type rebuiltPartition struct {
	comps [][]*Flow // ordered by lowest flow id, each id-sorted
	bySrc []int32   // per-node component index, -1 when no active flow
	byDst []int32
	total int
}

// buildPartition groups the currently active flows into connected
// components with a union-find keyed on flow endpoints, exactly as the
// network once did on every recomputation after churn: collect and id-sort
// the active flows, join flows sharing a source or a destination, and
// number components by their lowest flow id.
func buildPartition(n *Network) rebuiltPartition {
	var active []*Flow
	for _, f := range n.flows {
		if f.open && f.busy {
			active = append(active, f)
		}
	}
	slices.SortFunc(active, func(a, b *Flow) int { return a.id - b.id })

	nn := n.Topo.N
	p := rebuiltPartition{bySrc: make([]int32, nn), byDst: make([]int32, nn), total: len(active)}
	for i := range p.bySrc {
		p.bySrc[i] = -1
		p.byDst[i] = -1
	}
	parent := make([]int32, len(active))
	byRoot := make([]int32, len(active))
	for i := range parent {
		parent[i] = int32(i)
		byRoot[i] = -1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i, f := range active {
		if j := p.bySrc[f.src]; j >= 0 {
			union(int32(i), j)
		} else {
			p.bySrc[f.src] = int32(i)
		}
		if j := p.byDst[f.dst]; j >= 0 {
			union(int32(i), j)
		} else {
			p.byDst[f.dst] = int32(i)
		}
	}
	for i, f := range active {
		r := find(int32(i))
		ci := byRoot[r]
		if ci < 0 {
			ci = int32(len(p.comps))
			byRoot[r] = ci
			p.comps = append(p.comps, nil)
		}
		p.comps[ci] = append(p.comps[ci], f)
		p.bySrc[f.src] = ci
		p.byDst[f.dst] = ci
	}
	return p
}

// checkPartition asserts that the network's maintained partition equals the
// rebuilt one: the same member list (set and id order) per component, no
// extra components, and the same component behind every endpoint. It
// returns the number of components.
func checkPartition(t *testing.T, n *Network, where string) int {
	t.Helper()
	want := buildPartition(n)
	got := &n.part
	if got.total != want.total {
		t.Fatalf("%s: maintained partition holds %d flows, rebuild %d", where, got.total, want.total)
	}
	// slot maps each rebuilt component to its maintained slot.
	slot := make([]int32, len(want.comps))
	for wi, flows := range want.comps {
		ci := got.bySrc[flows[0].src]
		if ci < 0 {
			t.Fatalf("%s: flow %d is active but its source is unindexed", where, flows[0].id)
		}
		slot[wi] = ci
		members := got.members(ci, nil)
		if !slices.Equal(members, flows) {
			t.Fatalf("%s: component %d: maintained members %v, rebuilt %v",
				where, wi, flowIDs(members), flowIDs(flows))
		}
	}
	live := 0
	for ci := range got.comps {
		if got.comps[ci].first != nil {
			live++
		}
	}
	if live != len(want.comps) {
		t.Fatalf("%s: %d non-empty maintained components, rebuild has %d", where, live, len(want.comps))
	}
	if empty := len(got.comps) - live; len(got.free) != empty {
		t.Fatalf("%s: %d empty component slots, %d on the free list", where, empty, len(got.free))
	}
	for v := 0; v < n.Topo.N; v++ {
		for _, side := range []struct {
			name      string
			got, want []int32
		}{{"bySrc", got.bySrc, want.bySrc}, {"byDst", got.byDst, want.byDst}} {
			g := int32(-1)
			if side.got != nil {
				g = side.got[v]
			}
			w := int32(-1)
			if side.want[v] >= 0 {
				w = slot[side.want[v]]
			}
			if g != w {
				t.Fatalf("%s: %s[%d] = %d, rebuild maps it to slot %d", where, side.name, v, g, w)
			}
		}
	}
	return len(want.comps)
}

func flowIDs(fs []*Flow) []int {
	ids := make([]int, len(fs))
	for i, f := range fs {
		ids[i] = f.id
	}
	return ids
}

// TestIncrementalPartitionMatchesRebuild drives seeded random churn and,
// after every recomputation, asserts the maintained partition equals a
// from-scratch rebuild. The churn covers starts and completions, closes of
// busy flows, completions restarted at once and a few milliseconds later
// (both inside one recompute interval), idle closes, flows bridging
// components and departures splitting them, and BandwidthChanged (full)
// passes interleaved with incremental ones.
func TestIncrementalPartitionMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		const nodes = 16
		topo := NewTopology(nodes)
		for i := 0; i < nodes; i++ {
			topo.AccessIn[i] = rng.Uniform(2e5, 2e6)
			topo.AccessOut[i] = rng.Uniform(2e5, 2e6)
			for j := 0; j < nodes; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
					topo.SetCoreDelay(NodeID(i), NodeID(j), rng.Uniform(0.001, 0.05))
				}
			}
		}
		net := New(eng, topo, rng.Stream("net"))
		pick := func() (NodeID, NodeID) {
			src := NodeID(rng.Intn(nodes))
			dst := NodeID(rng.Intn(nodes))
			if src == dst {
				dst = (dst + 1) % nodes
			}
			return src, dst
		}

		// Each stream owns one flow at a time. On completion it restarts at
		// once, restarts after a pause shorter than the recompute
		// interval, pauses longer, or closes and reopens elsewhere.
		type stream struct{ f *Flow }
		var run func(s *stream)
		run = func(s *stream) {
			s.f.Start(rng.Uniform(2e4, 3e5), func() {
				switch r := rng.Float64(); {
				case r < 0.4:
					run(s)
				case r < 0.6:
					eng.After(rng.Uniform(0.001, 0.02), func() {
						if s.f.open && !s.f.busy {
							run(s)
						}
					})
				case r < 0.75:
					eng.After(rng.Uniform(0.05, 0.5), func() {
						if s.f.open && !s.f.busy {
							run(s)
						}
					})
				default:
					s.f.Close()
					s.f = net.NewFlow(pick())
					run(s)
				}
			})
		}
		streams := make([]*stream, 24)
		for i := range streams {
			streams[i] = &stream{f: net.NewFlow(pick())}
			run(streams[i])
		}

		// Every 150 ms close one stream's flow, busy or idle, and reopen
		// it on fresh endpoints; every 700 ms change an access link and
		// report it through BandwidthChanged, forcing a full pass.
		var closer func()
		closer = func() {
			s := streams[rng.Intn(len(streams))]
			s.f.Close()
			s.f = net.NewFlow(pick())
			if rng.Float64() < 0.7 {
				run(s)
			} else {
				eng.After(0.3, func() {
					if s.f.open && !s.f.busy {
						run(s)
					}
				})
			}
			eng.After(0.15, closer)
		}
		eng.After(0.15, closer)
		var degrade func()
		degrade = func() {
			i := rng.Intn(nodes)
			topo.AccessOut[i] *= rng.Uniform(0.5, 1.5)
			net.BandwidthChanged()
			eng.After(0.7, degrade)
		}
		eng.After(0.7, degrade)

		seen := net.Recomputes
		full, incremental, maxComps := 0, 0, 0
		for eng.Now() < 8 {
			fullPending := net.dirtyAll
			if !eng.Step() {
				break
			}
			if net.Recomputes == seen {
				continue
			}
			seen = net.Recomputes
			if fullPending {
				full++
			} else {
				incremental++
			}
			comps := checkPartition(t, net, fmt.Sprintf("seed %d at t=%.4f", seed, float64(eng.Now())))
			maxComps = max(maxComps, comps)
		}
		if full == 0 || incremental == 0 {
			t.Fatalf("seed %d: %d full and %d incremental passes; want both", seed, full, incremental)
		}
		if maxComps < 3 {
			t.Fatalf("seed %d: at most %d components at once; the churn never exercised splits and merges", seed, maxComps)
		}
		if net.PartitionFlowsRebuilt == 0 {
			t.Fatalf("seed %d: no flow was ever re-unioned", seed)
		}
	}
}

// TestPartitionRebuildScalesWithChurn pins the cost model of partition
// maintenance on a scalefill-shaped run: every node of a clustered topology
// pulls a file in sequential rounds from a random node of its own cluster,
// one fresh flow per round. The flows re-unioned must stay within a small
// constant of the churned flows — a component is at most one cluster's
// flows — instead of growing with the active flows at every pass, as a
// rebuild from scratch would.
func TestPartitionRebuildScalesWithChurn(t *testing.T) {
	const nodes, clusterSize, rounds = 2000, 25, 3
	eng := sim.NewEngine()
	topo := CompactClusteredTopology(nodes, clusterSize, 1)
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	rng := sim.NewRNG(1).Stream("fill")

	churns := 0
	var pull func(dst NodeID, round int)
	pull = func(dst NodeID, round int) {
		base := int(dst) / clusterSize * clusterSize
		src := NodeID(base + rng.Intn(clusterSize))
		if src == dst {
			src = NodeID(base + (int(src)-base+1)%clusterSize)
		}
		f := net.NewFlow(src, dst)
		churns++ // the start
		f.Start(5e5, func() {
			f.Close()
			churns++ // the completion and the close, at one instant
			if round+1 < rounds {
				pull(dst, round+1)
			}
		})
	}
	for v := 0; v < nodes; v++ {
		v := NodeID(v)
		eng.After(rng.Uniform(0, 0.05), func() { pull(v, 0) })
	}

	// rebuildWork is what a from-scratch rebuild on every pass would have
	// re-unioned: every active flow, every time.
	rebuildWork := 0
	seen := net.Recomputes
	for eng.Step() {
		if net.Recomputes != seen {
			seen = net.Recomputes
			rebuildWork += net.part.total
		}
	}
	if churns != 2*rounds*nodes {
		t.Fatalf("run churned %d times, want %d: not every round finished", churns, 2*rounds*nodes)
	}
	rebuilt := int(net.PartitionFlowsRebuilt)
	t.Logf("%d churns, %d flows re-unioned (%.2f per churn), %d for rebuilds from scratch over %d passes",
		churns, rebuilt, float64(rebuilt)/float64(churns), rebuildWork, net.Recomputes)
	if rebuilt > 2*churns {
		t.Errorf("%d flows re-unioned for %d churns; want at most 2 per churn", rebuilt, churns)
	}
	if 10*rebuilt > rebuildWork {
		t.Errorf("%d flows re-unioned, more than a tenth of the %d a rebuild on every pass would do",
			rebuilt, rebuildWork)
	}
}

// BenchmarkPartitionChurn measures one recomputation after a few flows
// churn in a large, mostly quiet network: a 50,000-node clustered topology
// carrying 6,000 long transfers in 120 cluster-sized components (every node
// of a cluster sends to its next two neighbours, so each cluster's 50 flows
// form one component). Each op closes four random flows, opens their
// replacements, and runs the recomputation they trigger. It reports the
// flows re-unioned per op, which must track the churn, not the 6,000.
func BenchmarkPartitionChurn(b *testing.B) {
	const nodes, clusterSize, clusters, churnPerOp = 50000, 25, 120, 4
	eng := sim.NewEngine()
	topo := CompactClusteredTopology(nodes, clusterSize, 1)
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	rng := sim.NewRNG(2).Stream("churn")
	var flows []*Flow
	for c := 0; c < clusters; c++ {
		base := c * clusterSize
		for k := 0; k < clusterSize; k++ {
			for hop := 1; hop <= 2; hop++ {
				f := net.NewFlow(NodeID(base+k), NodeID(base+(k+hop)%clusterSize))
				f.Start(1e15, nil)
				flows = append(flows, f)
			}
		}
	}
	eng.RunUntil(eng.Now() + DefaultRecomputeInterval)
	rebuilt := net.PartitionFlowsRebuilt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < churnPerOp; j++ {
			k := rng.Intn(len(flows))
			old := flows[k]
			old.Close()
			flows[k] = net.NewFlow(old.src, old.dst)
			flows[k].Start(1e15, nil)
		}
		eng.RunUntil(eng.Now() + DefaultRecomputeInterval)
	}
	b.StopTimer()
	b.ReportMetric(float64(net.PartitionFlowsRebuilt-rebuilt)/float64(b.N), "flows_rebuilt/op")
}

// TestComponentsWaterfillInIDOrder pins the order invariant: components
// are re-waterfilled in ascending order of their lowest flow id, whatever
// order their endpoints were dirtied in, and a full pass walks flows in id
// order. Two identical flows in separate components finish at the same
// instant, so their completion events tie and fire in the order the pass
// scheduled them.
func TestComponentsWaterfillInIDOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		report func(net *Network)
	}{
		// Dirty b's component before a's.
		{"incremental", func(net *Network) { net.LinkChanged(2, 3); net.LinkChanged(0, 1) }},
		{"full", func(net *Network) { net.BandwidthChanged() }},
	} {
		eng, net := testNet(6, Mbps(8), Mbps(8))
		var order []int
		a := net.NewFlow(0, 1)
		b := net.NewFlow(2, 3)
		// Closed flows behind both leave tombstones; compacting them away
		// rewrites the flow list a and b sit in, which must keep id order.
		for k := 0; k < 3; k++ {
			net.NewFlow(4, 5).Close()
		}
		a.Start(1e7, func() { order = append(order, a.id) })
		b.Start(1e7, func() { order = append(order, b.id) })
		eng.RunUntil(5)
		c.report(net)
		eng.Run()
		if len(order) != 2 || order[0] != a.id {
			t.Errorf("%s: completions fired in flow order %v, want [%d %d]", c.name, order, a.id, b.id)
		}
	}
}
