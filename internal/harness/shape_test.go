package harness

import (
	"testing"

	"bulletprime/internal/core"
)

// Shape tests: the paper's qualitative claims asserted as invariants at
// moderate scale. They are skipped under -short (each runs multi-system
// experiments taking tens of wall seconds).

// TestShapeBulletPrimeBeatsBulletAndBT asserts the Figure 4 ordering that
// holds at every scale: Bullet' finishes ahead of Bullet and BitTorrent on
// the identical lossy topology.
func TestShapeBulletPrimeBeatsBulletAndBT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system comparison is slow")
	}
	w := Workload{FileBytes: 10e6, BlockSize: 16 * 1024}
	topo := ModelNetTopology(30)
	bp := RunOne("bp", 21, topo, nil, KindBulletPrime, w, nil, 3600)
	bl := RunOne("bl", 21, topo, nil, KindBullet, w, nil, 3600)
	bt := RunOne("bt", 21, topo, nil, KindBitTorrent, w, nil, 3600)
	if !bp.Finished || !bl.Finished || !bt.Finished {
		t.Fatal("a system did not finish")
	}
	if bp.CDF.Median() >= bl.CDF.Median() {
		t.Fatalf("Bullet' median %.1f not ahead of Bullet %.1f", bp.CDF.Median(), bl.CDF.Median())
	}
	if bp.CDF.Median() >= bt.CDF.Median() {
		t.Fatalf("Bullet' median %.1f not ahead of BitTorrent %.1f", bp.CDF.Median(), bt.CDF.Median())
	}
	if bp.CDF.Worst() >= bt.CDF.Worst() {
		t.Fatalf("Bullet' worst %.1f not ahead of BitTorrent worst %.1f", bp.CDF.Worst(), bt.CDF.Worst())
	}
}

// TestShapeFirstEncounteredLoses asserts the Figure 6 ordering: the
// first-encountered request strategy trails rarest-random.
func TestShapeFirstEncounteredLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy comparison is slow")
	}
	w := Workload{FileBytes: 8e6, BlockSize: 16 * 1024}
	topo := ModelNetTopology(25)
	rr := RunOne("rr", 22, topo, nil, KindBulletPrime, w,
		func(c *core.Config) { c.Strategy = core.RarestRandom }, 3600)
	fe := RunOne("fe", 22, topo, nil, KindBulletPrime, w,
		func(c *core.Config) { c.Strategy = core.FirstEncountered }, 3600)
	if !rr.Finished || !fe.Finished {
		t.Fatal("a strategy did not finish")
	}
	if rr.CDF.Median() > fe.CDF.Median()*1.05 {
		t.Fatalf("rarest-random median %.1f clearly behind first-encountered %.1f",
			rr.CDF.Median(), fe.CDF.Median())
	}
}

// TestShapeDynamicOutstandingHandlesCascade asserts the Figure 12 claim:
// under cascading bandwidth drops the dynamic window beats a large fixed
// window for the constrained node.
func TestShapeDynamicOutstandingHandlesCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("cascade comparison is slow")
	}
	// A 60 MB file with 15 s drop intervals keeps the download in flight
	// across the whole cascade (the full figure uses 100 MB and 25 s;
	// the proportions are the same). Each drop strands a fixed-50 window
	// of ~400 KB on the newly slow link; the dynamic window keeps only a
	// couple of blocks exposed.
	w := Workload{FileBytes: 60e6, BlockSize: 8 * 1024}
	mut := func(out int) func(*core.Config) {
		return func(c *core.Config) {
			c.StaticOutstanding = out
			c.BlockSize = 8 * 1024
			c.StaticPeers = 6
		}
	}
	cascade := mustCompile(CascadeScenario(15), 8)
	dyn := RunOne("dyn", 23, CascadeTopology(), cascade, KindBulletPrime, w, mut(0), 7200)
	big := RunOne("50", 23, CascadeTopology(), cascade, KindBulletPrime, w, mut(50), 7200)
	if !dyn.Finished {
		t.Fatal("dynamic run did not finish")
	}
	// The 8th node is the last in both CDFs.
	if big.Finished && dyn.CDF.Worst() > big.CDF.Worst()*1.1 {
		t.Fatalf("dynamic worst %.1f clearly behind fixed-50 worst %.1f",
			dyn.CDF.Worst(), big.CDF.Worst())
	}
}

// TestShapeControlOverheadModest asserts the "restrict control overhead in
// favor of distributing data" tenet: Bullet' control traffic stays a small
// fraction of bytes moved.
func TestShapeControlOverheadModest(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement is slow")
	}
	w := Workload{FileBytes: 8e6, BlockSize: 16 * 1024}
	res := RunOne("bp", 24, ModelNetTopology(25), nil, KindBulletPrime, w, nil, 3600)
	if !res.Finished {
		t.Fatal("did not finish")
	}
	if ov := res.ControlOverhead(); ov > 0.10 {
		t.Fatalf("control overhead %.1f%% exceeds 10%%", ov*100)
	}
}
