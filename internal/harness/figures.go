package harness

import (
	"fmt"
	"sort"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/shotgun"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// Figure generators: one per figure of the paper's evaluation section.
// Each builds the same series the paper plots, at a configurable scale.
// Labels follow the paper's legends.

// paperNodes/paperFile are the full-scale dimensions of the main ModelNet
// experiments: 100 nodes and a 100 MB file in 16 KB blocks.
const (
	paperNodes    = 100
	paperFileMB   = 100.0
	paperBlock    = 16 * 1024
	defaultDDL    = sim.Time(3600)
	dynamicDDL    = sim.Time(10800) // non-adaptive systems crawl under dynamics
	planetLabDDL  = sim.Time(3600)
	rsyncBaseDDL  = sim.Time(36000)
	planetNodes   = 41
	planetFileMB  = 50.0
	planetBlock   = 100 * 1024
	shotgunNodes  = 40
	shotgunFileMB = 24.0
)

// Figure4 compares Bullet', Bullet, BitTorrent and SplitStream downloading
// the file under random network packet losses (static conditions), plus the
// two reference lines: optimal access-link time and TCP-feasible+startup.
func Figure4(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(paperNodes)
	w := Workload{FileBytes: sc.file(paperFileMB * 1e6), BlockSize: paperBlock}
	topo := ModelNetTopology(n)

	fig := &trace.Figure{
		Title:  "Figure 4: download time CDF, static losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
	}
	fig.Series = append(fig.Series, referenceLines(n, w)...)
	for _, kind := range []ProtoKind{KindBulletPrime, KindBullet, KindBitTorrent, KindSplitStream} {
		res := RunOne(kind.String(), seed, topo, nil, kind, w, nil, defaultDDL)
		fig.Series = append(fig.Series, trace.FromCDF(kind.String(), res.CDF))
	}
	return fig
}

// Figure5 repeats Figure 4 under the synthetic bandwidth-change process
// (20 s period, cumulative halving) on top of random losses.
func Figure5(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(paperNodes)
	w := Workload{FileBytes: sc.file(paperFileMB * 1e6), BlockSize: paperBlock}
	topo := ModelNetTopology(n)
	dyn := mustCompile(SyntheticScenario(20), n)

	fig := &trace.Figure{
		Title:  "Figure 5: download time CDF, dynamic bandwidth + losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
	}
	for _, kind := range []ProtoKind{KindBulletPrime, KindBullet, KindBitTorrent, KindSplitStream} {
		res := RunOne(kind.String(), seed, topo, dyn, kind, w, nil, dynamicDDL)
		fig.Series = append(fig.Series, trace.FromCDF(kind.String(), res.CDF))
	}
	return fig
}

// Figure6 compares Bullet' request strategies under random losses.
func Figure6(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(paperNodes)
	w := Workload{FileBytes: sc.file(paperFileMB * 1e6), BlockSize: paperBlock}
	topo := ModelNetTopology(n)

	fig := &trace.Figure{
		Title:  "Figure 6: request strategy comparison, static losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
	}
	for _, strat := range []core.RequestStrategy{core.RarestRandom, core.Random, core.FirstEncountered} {
		strat := strat
		res := RunOne("BulletPrime "+strat.String(), seed, topo, nil, KindBulletPrime, w,
			func(c *core.Config) { c.Strategy = strat }, defaultDDL)
		fig.Series = append(fig.Series, trace.FromCDF("BulletPrime "+strat.String()+" request strategy", res.CDF))
	}
	return fig
}

// peerSetSeries runs Bullet' with static peer-set sizes and the dynamic
// sizing policy on the given topology and dynamics scenario (may be nil).
func peerSetSeries(sc Scale, seed int64, topo func(*sim.RNG) *netem.Topology,
	dyn *scenario.Program, fileBytes float64, sizes []int) []trace.Series {

	ddl := defaultDDL
	if dyn != nil {
		ddl = dynamicDDL
	}
	w := Workload{FileBytes: fileBytes, BlockSize: paperBlock}
	var out []trace.Series
	for _, size := range sizes {
		size := size
		label := fmt.Sprintf("BulletPrime, %d senders, %d receivers", size, size)
		res := RunOne(label, seed, topo, dyn, KindBulletPrime, w,
			func(c *core.Config) { c.StaticPeers = size }, ddl)
		out = append(out, trace.FromCDF(label, res.CDF))
	}
	res := RunOne("dyn", seed, topo, dyn, KindBulletPrime, w, nil, ddl)
	out = append(out, trace.FromCDF("BulletPrime, dyn. #senders,#receivers", res.CDF))
	return out
}

// Figure7 sweeps static peer-set sizes 6/10/14 against dynamic sizing under
// random losses.
func Figure7(sc Scale, seed int64) *trace.Figure {
	return &trace.Figure{
		Title:  "Figure 7: peer set size, static losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: peerSetSeries(sc, seed, ModelNetTopology(sc.nodes(paperNodes)), nil,
			sc.file(paperFileMB*1e6), []int{6, 10, 14}),
	}
}

// Figure8 repeats Figure 7 under synthetic bandwidth changes.
func Figure8(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(paperNodes)
	return &trace.Figure{
		Title:  "Figure 8: peer set size, dynamic bandwidth + losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: peerSetSeries(sc, seed, ModelNetTopology(n),
			mustCompile(SyntheticScenario(20), n), sc.file(paperFileMB*1e6), []int{6, 10, 14}),
	}
}

// Figure9 runs the constrained-access topology (800 Kbps access, clean
// 10 Mbps core) with a 10 MB file, where more peers hurt.
func Figure9(sc Scale, seed int64) *trace.Figure {
	return &trace.Figure{
		Title:  "Figure 9: peer set size, constrained access links (10 MB)",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: peerSetSeries(sc, seed, ConstrainedAccessTopology(sc.nodes(paperNodes)), nil,
			sc.file(10*1e6), []int{10, 14}),
	}
}

// outstandingSeries sweeps fixed per-peer outstanding-request limits plus
// the dynamic controller on the given topology and dynamics scenario (may
// be nil).
func outstandingSeries(seed int64, topo func(*sim.RNG) *netem.Topology,
	dyn *scenario.Program, fileBytes float64, fixed []int, staticPeers int) []trace.Series {

	w := Workload{FileBytes: fileBytes, BlockSize: 8 * 1024} // 8 KB blocks (§4.5)
	mut := func(out int) func(*core.Config) {
		return func(c *core.Config) {
			c.StaticOutstanding = out
			c.BlockSize = 8 * 1024
			if staticPeers > 0 {
				c.StaticPeers = staticPeers
			} else {
				c.MaxSendersCap = 5 // "up to 5 senders" (§4.5)
			}
		}
	}
	var out []trace.Series
	for _, o := range fixed {
		o := o
		label := fmt.Sprintf("BulletPrime , %d    outst", o)
		res := RunOne(label, seed, topo, dyn, KindBulletPrime, w, mut(o), defaultDDL)
		out = append(out, trace.FromCDF(label, res.CDF))
	}
	res := RunOne("dyn", seed, topo, dyn, KindBulletPrime, w, mut(0), defaultDDL)
	out = append(out, trace.FromCDF("BulletPrime , dyn  outst", res.CDF))
	return out
}

// Figure10 sweeps outstanding limits on the clean high-BDP topology
// (25 nodes, 10 Mbps / 100 ms): too few outstanding blocks cannot fill the
// bandwidth-delay product.
func Figure10(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(25)
	return &trace.Figure{
		Title:  "Figure 10: outstanding requests, clean high-BDP network",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: outstandingSeries(seed, HighBDPTopology(n, 0, 0), nil,
			sc.file(paperFileMB*1e6), []int{3, 6, 9, 15, 50}, 0),
	}
}

// Figure11 repeats Figure 10 with random losses U[0,1.5%): TCP needs less
// data in flight, so over-requesting (50) backfires and dynamic wins.
func Figure11(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(25)
	return &trace.Figure{
		Title:  "Figure 11: outstanding requests under random losses",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: outstandingSeries(seed, HighBDPTopology(n, 0, 0.015), nil,
			sc.file(paperFileMB*1e6), []int{3, 6, 15, 50}, 0),
	}
}

// Figure12 runs the 8-node cascade: the 8th node's six 5 Mbps inbound
// links collapse to 100 Kbps one by one; requesting too much from a
// suddenly slow sender strands blocks in its queue.
func Figure12(sc Scale, seed int64) *trace.Figure {
	fileBytes := sc.file(paperFileMB * 1e6)
	return &trace.Figure{
		Title:  "Figure 12: outstanding requests under cascading bandwidth drops",
		XLabel: "download time (s)",
		YLabel: "fraction of nodes",
		Series: outstandingSeries(seed, CascadeTopology(), mustCompile(CascadeScenario(25), 8),
			fileBytes, []int{9, 15, 50}, 6),
	}
}

// Figure13Result carries the last-block analysis of §4.6 alongside the
// inter-arrival curve.
type Figure13Result struct {
	Fig *trace.Figure
	// AvgInterArrival is the overall mean block inter-arrival time tb.
	AvgInterArrival float64
	// LastBlocksOverage is the cumulative overage of the last 20 blocks'
	// mean inter-arrival above tb (the "last-block problem" cost).
	LastBlocksOverage float64
	// EncodingCost is the download-time increase a fixed 4% source-coding
	// overhead would impose (the alternative being weighed).
	EncodingCost float64
}

// Figure13 measures average block inter-arrival times across receivers for
// an unencoded Bullet' run and quantifies whether source encoding would
// pay for itself.
func Figure13(sc Scale, seed int64) *Figure13Result {
	n := sc.nodes(paperNodes)
	w := Workload{FileBytes: sc.file(paperFileMB * 1e6), BlockSize: paperBlock}
	numBlocks := w.NumBlocks()

	topo := ModelNetTopology(n)(sim.NewRNG(seed).Stream("topo"))
	rig := NewRig(topo, seed)

	// arrival[k] accumulates the k-th inter-arrival gap across receivers.
	sum := make([]float64, numBlocks)
	cnt := make([]int, numBlocks)
	perNodePrev := make(map[netem.NodeID]sim.Time)
	perNodeIdx := make(map[netem.NodeID]int)

	cfg := core.Config{
		Source:    0,
		Members:   rig.Members,
		NumBlocks: numBlocks,
		BlockSize: w.BlockSize,
		Strategy:  core.RarestRandom,
		OnBlock: func(id netem.NodeID, blockID, count int) {
			now := rig.Eng.Now()
			k := perNodeIdx[id]
			if k > 0 && k < numBlocks {
				sum[k] += float64(now - perNodePrev[id])
				cnt[k]++
			}
			perNodePrev[id] = now
			perNodeIdx[id] = k + 1
		},
		OnComplete: rig.record(),
	}
	sess := core.NewSession(rig.RT, cfg, rig.Master.Stream("bulletprime"))
	sess.Start()
	runUntilComplete(rig, sess, defaultDDL, nil)

	series := trace.Series{Label: "Average"}
	var all float64
	var allN int
	for k := 1; k < numBlocks; k++ {
		if cnt[k] == 0 {
			continue
		}
		mean := sum[k] / float64(cnt[k])
		series.Points = append(series.Points, [2]float64{float64(k), mean})
		all += mean
		allN++
	}
	res := &Figure13Result{
		Fig: &trace.Figure{
			Title:  "Figure 13: block inter-arrival times (unencoded)",
			XLabel: "block arrival index",
			YLabel: "inter-arrival time (s)",
			Series: []trace.Series{series},
		},
	}
	if allN == 0 {
		return res
	}
	tb := all / float64(allN)
	res.AvgInterArrival = tb
	last := 20
	if last > len(series.Points) {
		last = len(series.Points)
	}
	for _, p := range series.Points[len(series.Points)-last:] {
		if over := p[1] - tb; over > 0 {
			res.LastBlocksOverage += over
		}
	}
	// 4% more blocks at the average pace tb per block.
	res.EncodingCost = 0.04 * float64(numBlocks) * tb
	return res
}

// Figure14 is the PlanetLab comparison: 41 heterogeneous wide-area nodes,
// 50 MB file, 100 KB blocks, all four systems.
func Figure14(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(planetNodes)
	w := Workload{FileBytes: sc.file(planetFileMB * 1e6), BlockSize: planetBlock}
	topo := PlanetLabTopology(n)

	fig := &trace.Figure{
		Title:  "Figure 14: PlanetLab download CDF (50 MB)",
		XLabel: "time (s)",
		YLabel: "fraction of nodes",
	}
	for _, kind := range []ProtoKind{KindBulletPrime, KindSplitStream, KindBullet, KindBitTorrent} {
		res := RunOne(kind.String(), seed, topo, nil, kind, w, nil, planetLabDDL)
		fig.Series = append(fig.Series, trace.FromCDF(kind.String(), res.CDF))
	}
	return fig
}

// Figure15 compares Shotgun dissemination of an update bundle against
// staggered parallel rsync from the central server, on the PlanetLab-like
// topology (40 nodes, 24 MB of deltas).
func Figure15(sc Scale, seed int64) *trace.Figure {
	n := sc.nodes(shotgunNodes)
	bundle := sc.file(shotgunFileMB * 1e6)

	fig := &trace.Figure{
		Title:  "Figure 15: Shotgun vs parallel rsync (24 MB of deltas)",
		XLabel: "time (s)",
		YLabel: "fraction of nodes",
	}

	// Shotgun: download-only and download+update lines.
	topo := PlanetLabTopology(n)(sim.NewRNG(seed).Stream("topo"))
	rig := NewRig(topo, seed)
	res := shotgun.RunShotgun(rig.Eng, rig.RT, rig.Members, 0, bundle, 16*1024,
		rig.Master.Stream("shotgun"), rsyncBaseDDL)
	fig.Series = append(fig.Series,
		cdfSeries("Shotgun (Download Only)", res.Times(false)),
		cdfSeries("Shotgun (Download + Update)", res.Times(true)),
	)

	for _, parallel := range []int{2, 4, 8, 16} {
		topoR := PlanetLabTopology(n)(sim.NewRNG(seed).Stream("topo"))
		rigR := NewRig(topoR, seed)
		rr := shotgun.RunParallelRsync(rigR.Eng, rigR.Net, rigR.Members, 0, bundle, parallel, rsyncBaseDDL)
		fig.Series = append(fig.Series,
			cdfSeries(fmt.Sprintf("%d parallel rsync", parallel), rr.Times(true)))
	}
	return fig
}

// cdfSeries converts sorted completion times to a CDF series.
func cdfSeries(label string, times []float64) trace.Series {
	s := trace.Series{Label: label}
	sort.Float64s(times)
	for i, t := range times {
		s.Points = append(s.Points, [2]float64{t, float64(i+1) / float64(len(times))})
	}
	return s
}

// referenceLines computes the two baseline curves of Figure 4.
func referenceLines(n int, w Workload) []trace.Series {
	access := netem.Mbps(6)
	optimal := w.FileBytes / access
	// TCP feasible: protocol/framing overhead plus the slow-start ramp on
	// a representative ~200 ms RTT path before the pipe fills.
	const framing = 0.97 // 3% headers/acks
	rtt := 0.2
	rampRTTs := 0.0
	for rate := 2 * netem.MSS / rtt; rate < access; rate *= 2 {
		rampRTTs++
	}
	feasible := w.FileBytes/(access*framing) + rampRTTs*rtt

	vertical := func(label string, t float64) trace.Series {
		s := trace.Series{Label: label}
		for i := 1; i <= n-1; i++ {
			s.Points = append(s.Points, [2]float64{t, float64(i) / float64(n-1)})
		}
		return s
	}
	return []trace.Series{
		vertical("Physical Link Speed Possible", optimal),
		vertical("MACEDON  TCP feasible + startup", feasible),
	}
}

// AllFigures enumerates every figure generator for CLI listing.
var AllFigures = map[int]string{
	4:  "systems comparison, static losses",
	5:  "systems comparison, dynamic bandwidth",
	6:  "request strategies",
	7:  "peer set size, static losses",
	8:  "peer set size, dynamic bandwidth",
	9:  "peer set size, constrained access",
	10: "outstanding requests, clean high-BDP",
	11: "outstanding requests, lossy",
	12: "outstanding requests, cascading drops",
	13: "block inter-arrival / last-block analysis",
	14: "PlanetLab systems comparison",
	15: "Shotgun vs parallel rsync",
}

// Render runs one figure by number at the given scale and returns its
// rendered text (data + summary). Figure 13 appends its overage analysis.
func Render(figure int, sc Scale, seed int64) (string, error) {
	var fig *trace.Figure
	switch figure {
	case 4:
		fig = Figure4(sc, seed)
	case 5:
		fig = Figure5(sc, seed)
	case 6:
		fig = Figure6(sc, seed)
	case 7:
		fig = Figure7(sc, seed)
	case 8:
		fig = Figure8(sc, seed)
	case 9:
		fig = Figure9(sc, seed)
	case 10:
		fig = Figure10(sc, seed)
	case 11:
		fig = Figure11(sc, seed)
	case 12:
		fig = Figure12(sc, seed)
	case 13:
		r := Figure13(sc, seed)
		extra := fmt.Sprintf(
			"\n# avg inter-arrival tb = %.3fs\n# last-20-block overage = %.2fs\n# 4%% encoding cost     = %.2fs\n# encoding clearly beneficial: %v\n",
			r.AvgInterArrival, r.LastBlocksOverage, r.EncodingCost,
			r.LastBlocksOverage > r.EncodingCost*1.5)
		return r.Fig.Summary() + r.Fig.Render() + extra, nil
	case 14:
		fig = Figure14(sc, seed)
	case 15:
		fig = Figure15(sc, seed)
	default:
		return "", fmt.Errorf("harness: unknown figure %d (have 4..15)", figure)
	}
	return fig.Summary() + fig.Render(), nil
}
