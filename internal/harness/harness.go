// Package harness builds and runs the paper's experiments: it assembles a
// topology, dynamics schedule, and protocol sessions on one simulation
// engine, runs to completion, and renders the same curves the paper plots.
// Every figure of the evaluation section (Figures 4-15) has a generator
// here; bench_test.go and cmd/bulletctl call them.
package harness

import (
	"fmt"
	"math"
	"slices"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
	"bulletprime/internal/stream"
	"bulletprime/internal/trace"
)

// System is the common face of one protocol session, on every engine. On
// the sharded engine Start seeds initial events on every shard's engine
// before the group runs, and Complete and DoneAt are read between group
// steps, when no shard worker is active.
type System interface {
	Start()
	Complete() bool
	DoneAt() sim.Time
}

// Rig is one engine's share of an experiment: engine, emulated network,
// runtime, and the nodes it owns. A sequential or testbed run has one rig
// over every node; a sharded run has one rig per shard (ShardedRig.Slots),
// each owning its shard's nodes.
type Rig struct {
	Eng     *sim.Engine
	Net     *netem.Network
	RT      *proto.Runtime
	Members []netem.NodeID // owned nodes, ascending
	Master  *sim.RNG
	// Shard is the rig's place in its shard group; nil outside sharded
	// runs.
	Shard *sim.Shard

	// Done records per-node completion times as sessions call back.
	Done map[netem.NodeID]sim.Time

	// OnBlock, when set before system construction, receives every novel
	// block arrival on any member. Observers use it to sample per-node
	// block progress; it must only read state, never mutate it.
	OnBlock func(node netem.NodeID, blockID, count int)
	// Annotate, when set, receives human-readable timeline annotations as
	// scenario events fire and flash-crowd waves start.
	Annotate func(text string)

	// Stream is the live-streaming tracker of a stream-mode run
	// (SweepSpec.Stream): it observes block arrivals through OnBlock and
	// aggregates lag/jitter/rebuffer metrics. Nil for one-shot runs.
	Stream *stream.Tracker
	// StreamBps is the live source pacing rate handed to stream-capable
	// system builders via BuildCtx; 0 for one-shot runs.
	StreamBps float64
}

// NewRig creates a rig over the given topology. The master RNG seeds every
// subsystem stream; protocol variants compared "under identical conditions"
// share the topology draw by sharing the seed.
func NewRig(topo *netem.Topology, seed int64) *Rig {
	members := make([]netem.NodeID, topo.N)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	return newRig(sim.NewEngine(), topo, sim.NewRNG(seed), "net", members)
}

// newRig is the one rig constructor: the network draws from the master's
// netStream, so a sequential rig ("net") and each shard ("net#k") keep
// their historical RNG streams.
func newRig(eng *sim.Engine, topo *netem.Topology, master *sim.RNG, netStream string,
	members []netem.NodeID) *Rig {
	net := netem.New(eng, topo, master.Stream(netStream))
	return &Rig{
		Eng:     eng,
		Net:     net,
		RT:      proto.NewRuntime(eng, net),
		Members: members,
		Master:  master,
		Done:    make(map[netem.NodeID]sim.Time),
	}
}

// record returns an OnComplete callback capturing completion times.
func (r *Rig) record() func(netem.NodeID) {
	return func(id netem.NodeID) { r.Done[id] = r.Eng.Now() }
}

// CDF converts recorded completion times to a CDF, adding samples in node
// order so even the internal sample layout is reproducible.
func (r *Rig) CDF() *trace.CDF {
	ids := make([]netem.NodeID, 0, len(r.Done))
	for id := range r.Done {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c := &trace.CDF{}
	for _, id := range ids {
		c.Add(float64(r.Done[id]))
	}
	return c
}

// Workload describes the file being distributed.
type Workload struct {
	FileBytes float64
	BlockSize float64
}

// NumBlocks returns the block count for the workload.
func (w Workload) NumBlocks() int {
	n := int(math.Ceil(w.FileBytes / w.BlockSize))
	if n < 1 {
		n = 1
	}
	return n
}

// ProtoKind selects a protocol implementation.
type ProtoKind int

// The four systems of Figure 4/5/14.
const (
	KindBulletPrime ProtoKind = iota
	KindBullet
	KindBitTorrent
	KindSplitStream
)

// String returns the figure-legend name.
func (k ProtoKind) String() string {
	switch k {
	case KindBulletPrime:
		return "BulletPrime"
	case KindBullet:
		return "Bullet"
	case KindBitTorrent:
		return "BitTorrent"
	case KindSplitStream:
		return "SplitStream"
	}
	return "unknown"
}

// system returns the kind's registry name, which is also its façade
// Protocol name.
func (k ProtoKind) system() string {
	switch k {
	case KindBulletPrime:
		return "bulletprime"
	case KindBullet:
		return "bullet"
	case KindBitTorrent:
		return "bittorrent"
	case KindSplitStream:
		return "splitstream"
	}
	return "unknown"
}

// BuildSystem instantiates a protocol session over all rig members. The
// coreMut hook lets figure generators tweak Bullet' config (strategies,
// static peers, outstanding limits); it is ignored for the other systems.
func (r *Rig) BuildSystem(kind ProtoKind, w Workload, coreMut func(*core.Config)) System {
	return r.BuildNamedSystem(kind.system(), w, coreMut, r.Members, "")
}

// BuildNamedSystem instantiates the registered system with the given name
// over one cohort; the first member is the session source. streamSuffix
// distinguishes the RNG streams of concurrent sessions (flash-crowd waves)
// on one rig; the empty suffix is the classic single-session stream. See
// RegisterSystem for the open registry the paper protocols and third-party
// systems share.
func (r *Rig) BuildNamedSystem(name string, w Workload, coreMut func(*core.Config),
	members []netem.NodeID, streamSuffix string) System {

	e, ok := LookupSystem(name)
	if !ok || e.Build == nil {
		panic(fmt.Sprintf("harness: no single-rig system %q (registered: %v)", name, SystemNames()))
	}
	return e.Build(BuildCtx{
		Rig:          r,
		Workload:     w,
		CoreMut:      coreMut,
		Members:      members,
		StreamSuffix: streamSuffix,
		OnComplete:   r.record(),
		OnBlock:      r.OnBlock,
		StreamBps:    r.StreamBps,
	})
}

// RunResult captures one session's outcome.
type RunResult struct {
	Label    string
	CDF      *trace.CDF
	PerNode  map[netem.NodeID]sim.Time
	Finished bool
	// Stopped reports that Hooks.Stop ended the run before completion or
	// deadline (context cancellation); PerNode then holds a partial set.
	Stopped bool
	// EndedAt is the virtual clock when the run ended.
	EndedAt sim.Time
	// Overheads from the runtime's accounting.
	ControlBytes float64
	DataBytes    float64
	// Err reports a run that could not execute at all — a testbed setup
	// failure (socket bind) or an unsupported spec combination. The other
	// fields are then empty, never partial.
	Err error
	// Stream holds the live-streaming report of a stream-mode run
	// (SweepSpec.Stream): per-viewer lag, jitter, rebuffer, and goodput
	// aggregates. Nil for one-shot runs.
	Stream *stream.Report
}

// ControlOverhead returns control bytes as a fraction of all bytes.
func (r *RunResult) ControlOverhead() float64 {
	total := r.ControlBytes + r.DataBytes
	if total == 0 {
		return 0
	}
	return r.ControlBytes / total
}

// RunOne builds a fresh rig on topoFn's topology, applies dynamics (may be
// nil), runs the system until all nodes finish or deadline passes.
func RunOne(label string, seed int64, topoFn func(*sim.RNG) *netem.Topology,
	dynamics func(*Rig), kind ProtoKind, w Workload, coreMut func(*core.Config),
	deadline sim.Time) *RunResult {

	return RunSpec(SweepSpec{
		Label: label, Seed: seed, TopoFn: topoFn, Dynamics: dynamics,
		Kind: kind, Workload: w, CoreMut: coreMut, Deadline: deadline,
	})
}

// Hooks are optional observation and steering points for one run, honoured
// by every backend. Callbacks must only read rig and system state (writing
// would break the bit-identity of observed and unobserved runs). OnStart and
// OnTick receive the run's rigs: one for sequential and testbed runs, one
// per shard, in shard order, for sharded runs.
type Hooks struct {
	// OnStart fires once after the rigs and system are built, immediately
	// before System.Start.
	OnStart func(rigs []*Rig, sys System)
	// OnTick fires every TickEvery virtual seconds (first tick at
	// t=TickEvery) while the run is live — the observer's sampling clock.
	// A sharded run ticks at horizon barriers, where every shard clock sits
	// at the same instant and no shard worker is active.
	TickEvery float64
	OnTick    func(rigs []*Rig, sys System)
	// Stop is polled between event batches; returning true ends the run
	// early. RunResult.Stopped reports that it fired.
	Stop func() bool
	// OnBlock and Annotate are installed on every rig before system
	// construction; see the Rig fields of the same names. On a sharded run
	// they are called from the shard's worker goroutine.
	OnBlock  func(node netem.NodeID, blockID, count int)
	Annotate func(text string)
	// OnResult fires once with the finished RunResult, just before RunSpec
	// returns — the capture point archival layers use to persist sweep
	// cells as they finish. Under Sweep the callback runs on the worker
	// goroutine that owns the cell, so a hook shared across specs must be
	// goroutine-safe. Runs that fail the spec check never reach it.
	OnResult func(*RunResult)
}

// install hangs the block and annotation hooks on a rig and returns the
// stop poll; a nil receiver installs nothing.
func (h *Hooks) install(rig *Rig) (stop func() bool) {
	if h == nil {
		return nil
	}
	rig.OnBlock = h.OnBlock
	rig.Annotate = h.Annotate
	return h.Stop
}

// start fires OnStart and returns whether the run should sample OnTick.
func (h *Hooks) start(rigs []*Rig, sys System) (ticks bool) {
	if h == nil {
		return false
	}
	if h.OnStart != nil {
		h.OnStart(rigs, sys)
	}
	return h.TickEvery > 0 && h.OnTick != nil
}

// backend is one run driver and the spec features it supports.
type backend struct {
	name                       string
	scenario, stream, dynamics bool
}

var (
	backendSequential = backend{name: "sequential", scenario: true, stream: true, dynamics: true}
	backendSharded    = backend{name: "sharded"}
	backendTestbed    = backend{name: "testbed"}
)

func (s *SweepSpec) backend() backend {
	switch {
	case s.Testbed != nil:
		return backendTestbed
	case s.Engine == EngineSharded:
		return backendSharded
	}
	return backendSequential
}

// Check is the one place a spec's combination of backend, features, and
// system is vetted: the façade calls it from New, and RunSpec reports its
// error as RunResult.Err, so every entry point rejects a conflicted spec
// with the same message. The features a backend supports are data (the
// backend table above), and so are a system's capabilities (its
// SystemEntry).
func (s SweepSpec) Check() error {
	b := s.backend()
	switch {
	case s.Testbed != nil && s.Engine == EngineSharded:
		return fmt.Errorf("harness: testbed runs do not support the sharded engine " +
			"(one wall clock cannot drive parallel shard clocks)")
	case s.Scenario != nil && !b.scenario:
		return fmt.Errorf("harness: %s runs do not support scenarios "+
			"(scenario programs drive the sequential emulated network)", b.name)
	case s.Dynamics != nil && !b.dynamics:
		return fmt.Errorf("harness: %s runs do not support rig dynamics (DynamicBandwidth)", b.name)
	case s.Stream != nil && !b.stream:
		return fmt.Errorf("harness: %s runs do not support live streaming; streams need the "+
			"sequential engine on the emulated network (the lag tracker samples one deterministic clock)", b.name)
	}
	name := s.systemName()
	e, ok := LookupSystem(name)
	switch {
	case !ok:
		return fmt.Errorf("harness: unknown protocol %q (registered: %v)", name, SystemNames())
	case b == backendSharded && e.BuildSharded == nil:
		return fmt.Errorf("harness: protocol %q is not registered for sharded execution (sharded: %v)",
			name, systemNamesWhere(func(e SystemEntry) bool { return e.BuildSharded != nil }))
	case b != backendSharded && e.Build == nil:
		return fmt.Errorf("harness: protocol %q needs EngineSharded (it has no single-rig builder)", name)
	case s.Stream != nil && !e.Stream:
		return fmt.Errorf("harness: protocol %q does not support live streaming (its source cannot pace emission)", name)
	}
	return nil
}

// RunSpec executes one experiment spec on its backend: the sequential
// event loop, the sharded group (runSpecSharded), or the UDP testbed
// (runSpecTestbed). Every sweep cell and RunOne go through here, so a
// sweep's rigs are bit-identical to single runs. Hooks only read state, so
// an observed run is bit-identical to an unobserved one with the same spec.
// A spec failing Check returns at once with RunResult.Err set.
func RunSpec(s SweepSpec) *RunResult {
	if err := s.Check(); err != nil {
		return failed(&s, err)
	}
	switch s.backend() {
	case backendTestbed:
		return runSpecTestbed(s)
	case backendSharded:
		return runSpecSharded(s)
	}
	return runSpecSequential(s)
}

// runSpecSequential builds one rig, the optional compiled scenario
// (timeline events plus flash-crowd wave sessions), the optional dynamics
// hook, and the optional stream tracker, then drains the event queue with
// a completion early-exit.
func runSpecSequential(s SweepSpec) *RunResult {
	deadline := s.Deadline
	rig := NewRig(s.topology(), s.Seed)
	rig.RT.Tracer = s.Tracer
	stop := s.Hooks.install(rig)
	if s.Stream != nil {
		sp := s.Stream.Normalized()
		if end := sp.endTime(s.Scenario); end < deadline || deadline <= 0 {
			deadline = end
		}
		if s.Workload.FileBytes <= 0 {
			// Convenience for direct harness callers: derive the file from
			// the stream geometry (the façade always sets it explicitly).
			s.Workload.FileBytes = sp.config(s.Workload.BlockSize).ContentBytes()
		}
		installStream(rig, sp, s.Workload.BlockSize)
		if tr := s.Tracer; tr != nil {
			rig.Stream.Trace = func(at float64, node int, kind, note string) {
				tr.Record(at, kind, node, -1, note)
			}
		}
	}
	var sys System
	if s.Scenario != nil {
		sys = buildScenarioSystem(rig, s)
	} else {
		joinViewers(rig, rig.Members, 0)
		sys = rig.BuildNamedSystem(s.systemName(), s.Workload, s.CoreMut, rig.Members, "")
	}
	if s.Dynamics != nil {
		s.Dynamics(rig)
	}
	rigs := []*Rig{rig}
	if s.Hooks.start(rigs, sys) {
		scheduleTicks(rigs, sys, s.Hooks, deadline)
	}
	sys.Start()
	return finish(&s, rigs, sys, runUntilComplete(rig, sys, deadline, stop))
}

// topology draws the spec's topology from the seed's "topo" stream.
func (s *SweepSpec) topology() *netem.Topology {
	return s.TopoFn(sim.NewRNG(s.Seed).Stream("topo"))
}

// failed is the result of a run that could not execute at all.
func failed(s *SweepSpec, err error) *RunResult {
	return &RunResult{
		Label:   s.Label,
		CDF:     &trace.CDF{},
		PerNode: map[netem.NodeID]sim.Time{},
		Err:     err,
	}
}

// finish assembles the result of a run over its rigs — shared by every
// backend — and hands it to Hooks.OnResult. Sums run in rig order and each
// rig's completions enter the CDF in node order, so a result is a pure
// function of the run; over one rig every sum is that rig's own value.
func finish(s *SweepSpec, rigs []*Rig, sys System, stopped bool) *RunResult {
	done := 0
	for _, r := range rigs {
		done += len(r.Done)
	}
	res := &RunResult{
		Label:    s.Label,
		CDF:      &trace.CDF{},
		PerNode:  make(map[netem.NodeID]sim.Time, done),
		Finished: sys.Complete(),
		Stopped:  stopped,
	}
	for _, r := range rigs {
		for id, at := range r.Done {
			res.PerNode[id] = at
		}
		res.CDF.Merge(r.CDF())
		res.ControlBytes += r.RT.ControlBytes
		res.DataBytes += r.RT.DataBytes
		if now := r.Eng.Now(); now > res.EndedAt {
			res.EndedAt = now
		}
	}
	// Only sequential runs stream, and they have a single rig.
	if st := rigs[0].Stream; st != nil {
		res.Stream = st.Report(float64(res.EndedAt))
	}
	if s.Hooks != nil && s.Hooks.OnResult != nil {
		s.Hooks.OnResult(res)
	}
	return res
}

// scheduleTicks runs the hook's sampling clock as a self-rescheduling
// engine event on a single-rig run, bounded by the run deadline. Tick
// events only read state, so they cannot perturb the run; they do keep the
// event queue non-empty until the deadline, which runUntilComplete's
// completion check makes harmless.
func scheduleTicks(rigs []*Rig, sys System, h *Hooks, deadline sim.Time) {
	eng := rigs[0].Eng
	var tick func()
	tick = func() {
		h.OnTick(rigs, sys)
		if next := eng.Now() + sim.Time(h.TickEvery); next <= deadline {
			eng.Schedule(next, tick)
		}
	}
	if first := eng.Now() + sim.Time(h.TickEvery); first <= deadline {
		eng.Schedule(first, tick)
	}
}

// runUntilComplete paces the engine by its own event queue so completion
// (or a stop request) can end the run early: each iteration executes the
// next event timestamp (capped by the deadline) and re-checks Complete,
// which is O(1) for every protocol. Unlike fixed-width slicing, nearly-idle
// tails cost one iteration per remaining event rather than one per empty
// slice. It returns true when stop ended the run.
func runUntilComplete(rig *Rig, sys System, deadline sim.Time, stop func() bool) bool {
	for rig.Eng.Now() < deadline && !sys.Complete() {
		if stop != nil && stop() {
			return true
		}
		next, ok := rig.Eng.NextEventAt()
		if !ok || next > deadline {
			// Nothing more can happen before the deadline; advance the
			// clock there and stop.
			rig.Eng.RunUntil(deadline)
			return false
		}
		rig.Eng.RunUntil(next)
	}
	return false
}
