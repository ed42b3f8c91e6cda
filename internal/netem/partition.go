package netem

import "slices"

// The incremental fair-share scheme rests on a structural fact about max-min
// allocation: two flows can only influence each other's rates through a
// chain of shared resources. Every resource in this emulator — a node's
// outbound or inbound access link, or a core link — is identified by the
// src or dst endpoint of the flows using it, so the sharing graph's
// connected components are exactly the components of the bipartite
// src/dst graph. Waterfilling a component in isolation yields bit-identical
// rates to the global pass restricted to it: the per-resource accumulation
// (frozenUse sums, headroom divisions) only ever involves flows of one
// component, and freeze order within a component is the same in both.
//
// The partition is maintained, not rebuilt: a flow whose membership in the
// active set changed (it started, completed or closed) invalidates only the
// components holding its src or dst. Those components' flows plus the newly
// active flows are re-unioned in isolation. No clean component can share an
// endpoint with that subset, so a start that bridges two components and a
// departure that splits one are the same step.

// component is one connected component of the flow-sharing graph. Its
// flows form a list through Flow.partNext, kept in id order so
// per-component waterfills accumulate floats in the same order as a global
// pass. A list, not a slice per slot, so a slot that changes hands between
// components of different sizes never reallocates.
type component struct {
	first, last *Flow // lowest- and highest-id member; nil when the slot is free
	size        int
	mark        uint32 // partition epoch at which this slot was last collected
}

// partition is the decomposition of the active-flow set into connected
// components. Component slots are reused: a slot emptied by an update goes
// on the free list. bySrc and byDst index each endpoint to the single
// component containing its flows (-1 for none), so finding the components
// of a dirty endpoint costs one probe. Every slice is reused across
// updates, so steady-state churn allocates nothing.
type partition struct {
	comps []component
	free  []int32 // empty component slots
	bySrc []int32 // per-node component index, -1 when no active flow
	byDst []int32
	total int    // active flows across all components
	epoch uint32 // stamp for collecting each component at most once

	// pending holds each flow churned since the last update once (guarded
	// by Flow.pending).
	pending []*Flow

	sub       []*Flow // re-union scratch: the flows one update regroups
	collected []int32 // component-index scratch: affected or dirty slots
	parent    []int32 // union-find scratch, subset-indexed
	byRoot    []int32 // root subset index -> component index scratch
}

// index allocates the reverse indexes over n nodes, all unindexed. They are
// the partition's only per-node storage and are allocated once.
func (p *partition) index(n int) {
	p.bySrc = make([]int32, n)
	p.byDst = make([]int32, n)
	for i := range p.bySrc {
		p.bySrc[i] = -1
		p.byDst[i] = -1
	}
}

// churn records that f's busy or open state changed since the last update.
func (p *partition) churn(f *Flow) {
	if !f.pending {
		f.pending = true
		p.pending = append(p.pending, f)
	}
}

// nextEpoch starts a fresh collection round; see collect.
func (p *partition) nextEpoch() uint32 {
	p.epoch++
	if p.epoch == 0 {
		for i := range p.comps {
			p.comps[i].mark = 0
		}
		p.epoch = 1
	}
	return p.epoch
}

// collect appends component ci to list unless it is -1 or was already
// collected in this epoch.
func (p *partition) collect(list []int32, ci int32, epoch uint32) []int32 {
	if ci >= 0 && p.comps[ci].mark != epoch {
		p.comps[ci].mark = epoch
		list = append(list, ci)
	}
	return list
}

// update folds the pending churn into the partition and returns the number
// of flows re-unioned. Its cost is O(pending flows + flows of the components
// they touch), independent of the total number of active flows.
func (p *partition) update() int {
	if len(p.pending) == 0 {
		return 0
	}
	// A pending flow whose membership did not change (it completed and
	// restarted, or closed while idle) leaves the partition as it was.
	epoch := p.nextEpoch()
	affected := p.collected[:0]
	for _, f := range p.pending {
		if f.inPart != f.active() {
			affected = p.collect(affected, p.bySrc[f.src], epoch)
			affected = p.collect(affected, p.byDst[f.dst], epoch)
		}
	}

	// Empty the affected components, keeping their still-active flows, and
	// add the newly active ones. A newly active flow's endpoints are either
	// unindexed or held by an affected component, so once the affected
	// components' endpoints are reset, the re-union below sees only the
	// subset.
	sub := p.sub[:0]
	for _, ci := range affected {
		c := &p.comps[ci]
		for f := c.first; f != nil; {
			next := f.partNext
			f.partNext = nil
			p.bySrc[f.src], p.byDst[f.dst] = -1, -1
			f.inPart = f.active()
			if f.inPart {
				sub = append(sub, f)
			}
			f = next
		}
		p.total -= c.size
		c.first, c.last, c.size = nil, nil, 0
		p.free = append(p.free, ci)
	}
	for _, f := range p.pending {
		f.pending = false
		if !f.inPart && f.active() {
			f.inPart = true
			sub = append(sub, f)
		}
	}
	clear(p.pending)
	p.pending = p.pending[:0]
	p.collected = affected[:0]

	slices.SortFunc(sub, func(a, b *Flow) int { return a.id - b.id })
	p.union(sub)
	n := len(sub)
	clear(sub)
	p.sub = sub[:0]
	return n
}

// union groups the id-sorted flows of sub into fresh components with a
// union-find keyed on flow endpoints: flows sharing a source (one outbound
// access link) or a destination (one inbound access link) are joined.
// Core-link sharing needs no extra edges — same-pair flows already share
// both endpoints. Every endpoint of sub must be unindexed (-1) on entry.
func (p *partition) union(sub []*Flow) {
	parent := sizeInts(&p.parent, len(sub))
	byRoot := sizeInts(&p.byRoot, len(sub))
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
	join := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Attach the larger root index under the smaller so the
			// representative is always the lowest flow index.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// First pass: union via the endpoint index arrays (bySrc/byDst double
	// as "first subset flow seen at this endpoint" during this pass).
	for i, f := range sub {
		if j := p.bySrc[f.src]; j >= 0 {
			join(int32(i), j)
		} else {
			p.bySrc[f.src] = int32(i)
		}
		if j := p.byDst[f.dst]; j >= 0 {
			join(int32(i), j)
		} else {
			p.byDst[f.dst] = int32(i)
		}
	}

	// Second pass: fill one component slot per root, in id order so each
	// component's flows stay id-sorted, and point bySrc/byDst at the slots.
	for i, f := range sub {
		r := find(int32(i))
		ci := byRoot[r]
		if ci < 0 {
			ci = p.alloc()
			byRoot[r] = ci
		}
		c := &p.comps[ci]
		if c.first == nil {
			c.first = f
		} else {
			c.last.partNext = f
		}
		c.last = f
		c.size++
		p.bySrc[f.src] = ci
		p.byDst[f.dst] = ci
	}
	p.total += len(sub)
}

// members appends component ci's flows, in id order, to buf.
func (p *partition) members(ci int32, buf []*Flow) []*Flow {
	for f := p.comps[ci].first; f != nil; f = f.partNext {
		buf = append(buf, f)
	}
	return buf
}

// alloc returns an empty component slot, reusing a freed one if any.
func (p *partition) alloc() int32 {
	if k := len(p.free); k > 0 {
		ci := p.free[k-1]
		p.free = p.free[:k-1]
		return ci
	}
	p.comps = append(p.comps, component{})
	return int32(len(p.comps) - 1)
}
