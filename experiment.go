package bulletprime

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bulletprime/internal/harness"
	"bulletprime/internal/lab"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// Experiment is one dissemination experiment session: a validated
// configuration plus the machinery to observe and steer its run. New
// builds it, Subscribe attaches metric streams, Start launches the run
// under a context (cancel the context — or call Stop — to end it early
// with partial results), and Wait returns the Result. Run bundles
// Start+Wait.
//
// An Experiment runs exactly once; results are bit-identical to the
// one-shot Run wrapper for the same RunConfig, observed or not, because
// observation hooks only read simulation state.
type Experiment struct {
	cfg       RunConfig // normalized
	spec      harness.SweepSpec
	receivers int

	mu        sync.Mutex
	observers []*Observer
	started   bool
	cancel    context.CancelFunc
	// noSample suppresses the default time-series sampling; the Run/Sweep
	// compatibility wrappers set it so an unobserved wrapper run carries
	// no hooks at all.
	noSample bool

	done chan struct{}
	res  *Result
	// runID and recordErr report the automatic archive record made when
	// cfg.Archive is set; seriesEvery is the effective cadence of the
	// recorded Result.Series (-1 when the run kept none), part of the
	// archive key. All three are published by the close of done.
	runID       string
	recordErr   error
	seriesEvery float64
}

// New validates cfg (defaults filled, registries consulted, the scenario
// compiled against the overlay size) and returns an unstarted session.
func New(cfg RunConfig) (*Experiment, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	spec, err := buildSpec(norm)
	if err != nil {
		return nil, err
	}
	receivers := norm.Nodes - 1
	if norm.Engine == EngineSharded {
		// Sharded workloads have no distinguished source node; every node
		// pulls the file and completes.
		receivers = norm.Nodes
	}
	if spec.Scenario != nil {
		// Every flash-crowd wave has its own session source, which never
		// counts as a receiver.
		if waves := spec.Scenario.Waves(); waves != nil {
			receivers = norm.Nodes - len(waves)
		}
	}
	return &Experiment{
		cfg:       norm,
		spec:      spec,
		receivers: receivers,
		done:      make(chan struct{}),
	}, nil
}

// Config returns the normalized configuration the session will run.
func (e *Experiment) Config() RunConfig { return e.cfg }

// ObserverConfig parameterizes one metric stream.
type ObserverConfig struct {
	// Every is the stream's cadence in virtual seconds; it defaults to
	// the session's SampleEvery and may be finer (which also refines
	// Result.Series).
	Every float64
	// Buffer is the stream's channel capacity (default 64). The stream
	// never stalls the simulation: when the buffer is full, the oldest
	// buffered sample is discarded to make room for the newest
	// (drop-oldest), and Observer.Dropped counts the losses. A stalled
	// consumer therefore always finds the most recent Buffer samples when
	// it resumes, not the most ancient.
	Buffer int
	// PerNode includes per-node progress (blocks held, incoming rate,
	// done) in every streamed sample.
	PerNode bool
}

// Observer is one live metric stream over an experiment's run.
type Observer struct {
	every    float64
	perNode  bool
	ch       chan Sample
	lastEmit float64
	dropped  atomic.Int64
}

// Samples returns the stream; it is closed when the run ends, making
// `for s := range obs.Samples()` the canonical consumption loop.
func (o *Observer) Samples() <-chan Sample { return o.ch }

// Dropped counts samples discarded because the consumer fell behind.
func (o *Observer) Dropped() int64 { return o.dropped.Load() }

// send delivers without ever blocking the simulation: a full buffer drops
// its oldest sample to make room for the newest.
func (o *Observer) send(s Sample) {
	select {
	case o.ch <- s:
		return
	default:
	}
	select {
	case <-o.ch:
		o.dropped.Add(1)
	default:
	}
	// Only this goroutine ever sends, and the receive above (or a consumer
	// draining concurrently) freed a slot, so this cannot block.
	o.ch <- s
}

// Subscribe attaches a metric stream to the session. It must be called
// before Start.
func (e *Experiment) Subscribe(oc ObserverConfig) (*Observer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil, fmt.Errorf("bulletprime: Subscribe after Start")
	}
	if oc.PerNode && e.cfg.Engine == EngineSharded {
		return nil, fmt.Errorf("bulletprime: sharded runs do not support PerNode observers (per-node meters live on shard-private runtimes)")
	}
	if oc.Every < 0 {
		return nil, fmt.Errorf("bulletprime: observer Every must be >= 0, got %v", oc.Every)
	}
	every := oc.Every
	if every == 0 {
		every = e.cfg.SampleEvery
		if every <= 0 { // series sampling disabled; streams default to 1 s
			every = 1
		}
	}
	buffer := oc.Buffer
	if buffer <= 0 {
		buffer = 64
	}
	o := &Observer{every: every, perNode: oc.PerNode, ch: make(chan Sample, buffer)}
	e.observers = append(e.observers, o)
	return o, nil
}

// Start launches the run in the background. A nil ctx means Background;
// cancelling the context stops the run at the next event boundary, and
// Wait then returns the partial Result with Cancelled set. Starting twice
// is an error.
func (e *Experiment) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("bulletprime: experiment already started")
	}
	e.started = true
	runCtx, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	go e.run(runCtx)
	return nil
}

// Stop requests early termination, equivalent to cancelling Start's
// context. It is safe to call at any time after Start.
func (e *Experiment) Stop() {
	e.mu.Lock()
	cancel := e.cancel
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done is closed when the run ends (complete, deadline, or cancelled).
func (e *Experiment) Done() <-chan struct{} { return e.done }

// Wait blocks until the run ends and returns its Result. It is an error
// to Wait on a session that was never started. When RunConfig.Archive is
// set, Wait also surfaces a failure to archive the completed run — the
// Result is still returned alongside the error.
func (e *Experiment) Wait() (*Result, error) {
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return nil, fmt.Errorf("bulletprime: Wait before Start")
	}
	<-e.done
	return e.res, e.recordErr
}

// Run is Start followed by Wait.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if err := e.Start(ctx); err != nil {
		return nil, err
	}
	return e.Wait()
}

// run executes the session on its own goroutine: it assembles the harness
// hooks (sampling ticks, annotation capture, cancellation poll), runs the
// spec, and publishes the result.
func (e *Experiment) run(ctx context.Context) {
	defer e.cancel()
	spec := e.spec
	var rec *recorder
	var hooks harness.Hooks
	if len(e.observers) > 0 || (!e.noSample && e.cfg.SampleEvery > 0) {
		rec = newRecorder(e)
		hooks.TickEvery = rec.every
		hooks.OnStart = rec.onStart
		hooks.OnTick = rec.tick
		hooks.Annotate = rec.annotate
		if rec.perNode {
			hooks.OnBlock = rec.onBlock
		}
	}
	// The cancellation poll is always installed: Start wraps every caller
	// context in a cancellable one, and Stop depends on it.
	hooks.Stop = func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	spec.Hooks = &hooks
	hres := harness.RunSpec(spec)
	res := toResult(hres)
	if hres.Err != nil {
		// The run never executed (testbed setup failure); surface it through
		// Wait alongside the empty result, and never archive it.
		e.res = res
		e.recordErr = hres.Err
		e.seriesEvery = -1
		for _, o := range e.observers {
			close(o.ch)
		}
		close(e.done)
		return
	}
	if rec != nil && rec.rigs != nil {
		// Flush a closing sample so the series covers the tail (or, for a
		// cancelled run, the stop instant).
		if n := len(rec.series); n == 0 || rec.series[n-1].Time < res.Elapsed {
			rec.tick(rec.rigs, rec.sys)
		}
		res.Series = rec.series
		res.Annotations = rec.annotations
	}
	if e.spec.Tracer != nil {
		res.Trace = traceReport(e.spec.Tracer)
	}
	e.res = res
	// The archive key covers what was actually persisted: a run that kept
	// a time-series (possibly at an observer-refined cadence) must never
	// share an id — and thus dedupe — with an unobserved run of the same
	// config whose record has no series.
	e.seriesEvery = -1
	if rec != nil && rec.recordSeries {
		e.seriesEvery = rec.every
	}
	// Automatic archival: every completed run with an archive configured
	// persists before the session reports done. Cancelled runs are partial
	// and never archived.
	if e.cfg.Archive != nil && !res.Cancelled {
		e.runID, e.recordErr = recordRun(e.cfg.Archive, e.cfg, res, e.seriesEvery)
	}
	for _, o := range e.observers {
		close(o.ch)
	}
	close(e.done)
}

// recorder samples one run's metrics on the simulation's tick hook, over
// the run's rigs — one, or one per shard. All of its methods execute on the
// run's event loop (on a sharded run, at horizon barriers with no shard
// worker active); observers receive copies over channels.
type recorder struct {
	every     float64
	blockSize float64
	receivers int
	observers []*Observer
	perNode   bool
	// recordSeries gates Result.Series; false when RunConfig.SampleEvery
	// is negative and only subscribed streams want samples.
	recordSeries bool

	rigs []*harness.Rig
	sys  harness.System
	// meters holds one data-rate meter per rig, installed before the
	// system starts; tick sums them in rig order, so float sums are
	// deterministic.
	meters []*trace.RateMeter
	blocks []int
	// gauger is the transport's live-state probe (testbed runs only); it
	// is called from tick events on the run-loop goroutine, the only place
	// transport state mutates.
	gauger proto.Gauger

	pending     []Annotation
	annotations []Annotation
	series      []Sample
}

func newRecorder(e *Experiment) *recorder {
	every := e.cfg.SampleEvery // negative (series disabled) defers to observers
	perNode := false
	for _, o := range e.observers {
		if every <= 0 || o.every < every {
			every = o.every
		}
		if o.perNode {
			perNode = true
		}
	}
	rec := &recorder{
		every:        every,
		blockSize:    e.cfg.BlockSize,
		receivers:    e.receivers,
		observers:    e.observers,
		perNode:      perNode,
		recordSeries: e.cfg.SampleEvery > 0,
	}
	if perNode {
		rec.blocks = make([]int, e.cfg.Nodes)
	}
	return rec
}

// onStart hangs a goodput meter on every rig's runtime before the protocol
// starts, and probes the transport (if any) for live gauges. A meter
// resolves rates over windows up to ~4 sample periods at quarter-period
// granularity, and only receives writes from its own rig's events.
func (rec *recorder) onStart(rigs []*harness.Rig, sys harness.System) {
	rec.rigs = rigs
	rec.sys = sys
	rec.meters = make([]*trace.RateMeter, len(rigs))
	for k, rig := range rigs {
		rec.meters[k] = trace.NewRateMeter(rec.every/4, 16)
		rig.RT.DataMeter = rec.meters[k]
	}
	// Only testbed runs have a gauging transport, and they have one rig.
	if g, ok := rigs[0].RT.Transport.(proto.Gauger); ok {
		rec.gauger = g
	}
}

// onBlock tracks per-node block counts (novel arrivals only).
func (rec *recorder) onBlock(id netem.NodeID, blockID, count int) {
	if int(id) < len(rec.blocks) {
		rec.blocks[id] = count
	}
}

// annotate timestamps a scenario-event marker and queues it for the next
// sample. Annotations come from scenario programs and flash-crowd waves,
// which run on one rig.
func (rec *recorder) annotate(text string) {
	var at float64
	if rec.rigs != nil {
		at = float64(rec.rigs[0].Eng.Now())
	}
	a := Annotation{At: at, Text: text}
	rec.pending = append(rec.pending, a)
	rec.annotations = append(rec.annotations, a)
}

func (rec *recorder) takePending() []Annotation {
	if len(rec.pending) == 0 {
		return nil
	}
	p := rec.pending
	rec.pending = nil
	return p
}

// nodeProgress snapshots every member's download state, rig by rig.
func (rec *recorder) nodeProgress() []NodeProgress {
	var out []NodeProgress
	for _, rig := range rec.rigs {
		now := rig.Eng.Now()
		for _, id := range rig.Members {
			np := NodeProgress{Node: int(id)}
			if rec.blocks != nil && int(id) < len(rec.blocks) {
				np.Blocks = rec.blocks[id]
			}
			if n := rig.RT.Node(id); n != nil {
				np.Bps = n.InMeter.Rate(now, rec.every)
			}
			_, np.Done = rig.Done[id]
			out = append(out, np)
		}
	}
	return out
}

// tick is the sampling clock: it assembles one Sample, summing counters
// over the rigs in rig order (a sum over one rig is that rig's own value),
// appends it to the series, and fans it out to every observer whose cadence
// is due. A sharded run ticks at horizon barriers, where every rig's clock
// sits at the same instant, so the merged sample is a pure read of state
// the unobserved run also passes through.
func (rec *recorder) tick(rigs []*harness.Rig, sys harness.System) {
	var at sim.Time
	for _, rig := range rigs {
		// All clocks agree at a barrier; max() also covers the final flush
		// after a cancelled sharded run, where they may not.
		if t := rig.Eng.Now(); t > at {
			at = t
		}
	}
	now := float64(at)
	s := Sample{
		Time:        now,
		Receivers:   rec.receivers,
		Annotations: rec.takePending(),
	}
	for k, rig := range rigs {
		s.Completed += len(rig.Done)
		s.GoodputBps += rec.meters[k].Rate(at, rec.every)
		s.ControlBytes += rig.RT.ControlBytes
		s.DataBytes += rig.RT.DataBytes
	}
	s.DuplicateBlocks = harness.SystemDuplicates(sys)
	s.DuplicateBytes = float64(s.DuplicateBlocks) * rec.blockSize
	s.UsefulBytes = max(s.DataBytes-s.DuplicateBytes, 0)
	// Only sequential runs stream, and they have one rig.
	if st := rigs[0].Stream; st != nil {
		ls := st.Sample(now)
		s.StreamLagP50 = ls.LagP50
		s.StreamLagMax = ls.LagMax
		s.Rebuffering = ls.Rebuffering
		s.RebufferEvents = ls.RebufferEvents
		s.StreamGoodputBps = ls.GoodputBps
	}
	if rec.gauger != nil {
		g := rec.gauger.Gauges()
		s.TestbedRTTp50 = g.RTTp50
		s.TestbedRTTMax = g.RTTMax
		s.TestbedUnackedBytes = g.UnackedBytes
		s.TestbedRetransmits = g.Retransmits
		s.TestbedInjectedDrops = g.InjectedDrops
	}
	rec.emit(s)
}

// emit appends one assembled sample to the series and fans it out to every
// observer whose cadence is due.
func (rec *recorder) emit(s Sample) {
	if rec.recordSeries {
		rec.series = append(rec.series, s)
	}
	var nodes []NodeProgress
	for _, o := range rec.observers {
		if s.Time-o.lastEmit < o.every-1e-9 {
			continue
		}
		o.lastEmit = s.Time
		out := s
		if o.perNode && rec.rigs != nil {
			if nodes == nil {
				nodes = rec.nodeProgress()
			}
			out.Nodes = nodes
		}
		o.send(out)
	}
}

// SweepConfig describes a parallel experiment sweep: the cross product of
// Seeds × Protocols × Networks applied to a base configuration. Empty lists
// default to the base config's single value. It is plain data: it
// round-trips through encoding/json (a scenario travels with its traces
// inline; Base.Archive is never encoded), which is how bulletctl's farm
// hands one sweep to many workers.
type SweepConfig struct {
	// Base supplies everything not varied by the lists below; Base.Parallel
	// sets the worker-pool size (0 = one worker per CPU).
	Base      RunConfig
	Seeds     []int64
	Protocols []Protocol
	Networks  []NetworkPreset

	// Reps runs every cell Reps times with RepSeed-derived master seeds
	// (repetition 0 keeps the listed seed verbatim, so Reps <= 1 is the
	// classic single-repetition sweep). Repetitions are the raw material
	// of the statistical gate: per-repetition medians feed bootstrap
	// confidence intervals and the Mann-Whitney significance test.
	Reps int
}

// SweepCell identifies one cell of a sweep's cross product before it runs.
type SweepCell struct {
	// Index is the cell's position in protocol-major, then network, then
	// seed order — the order Sweep returns results in.
	Index    int
	Protocol Protocol
	Network  NetworkPreset
	Seed     int64
	// Rep is the cell's repetition index; the cell actually runs with
	// the RepSeed-derived seed (Seed stays the listed base seed so cells
	// of one repetition group can be grouped by it).
	Rep int
	// Config is the normalized configuration the cell runs, Seed
	// RepSeed-derived.
	Config RunConfig
}

// SweepRun is one completed cell of a sweep.
type SweepRun struct {
	SweepCell
	Result *Result
	// RunID is the archive id the cell recorded under when
	// Base.Archive is set (empty otherwise, and for cancelled cells).
	RunID string
	// Err reports a per-cell archival failure; the cell's Result is still
	// delivered.
	Err error
}

// maxSweepCells bounds a sweep's cross product. It sits far above any
// sweep worth running (every cell is a full session run) and keeps a
// hostile or mistyped spec — say Reps of a billion — from allocating
// without limit before a single cell runs.
const maxSweepCells = 1 << 16

// Cells expands the sweep into its cells in protocol-major, then network,
// then seed, then repetition order, and validates every cell exactly as
// Sweep does: each cell's config passes New, and the testbed network is
// refused. A sweep that Sweep would reject fails here with the same error.
func (cfg SweepConfig) Cells() ([]SweepCell, error) {
	cells, _, err := cfg.expand(false)
	return cells, err
}

// expand is the one place a sweep becomes cells; Cells, Sweep and
// SweepStream all go through it. With sessions set it also returns every
// cell's unstarted session, so a sweep validates and builds each cell once.
func (cfg SweepConfig) expand(sessions bool) ([]SweepCell, []*Experiment, error) {
	base, err := cfg.Base.normalized()
	if err != nil {
		return nil, nil, err
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	protocols := cfg.Protocols
	if len(protocols) == 0 {
		protocols = []Protocol{base.Protocol}
	}
	networks := cfg.Networks
	if len(networks) == 0 {
		networks = []NetworkPreset{base.Network}
	}
	reps := max(cfg.Reps, 1)
	// In floating point, so no product of lengths can overflow.
	if float64(len(protocols))*float64(len(networks))*float64(len(seeds))*float64(reps) > maxSweepCells {
		return nil, nil, fmt.Errorf("bulletprime: sweep of %d protocols × %d networks × %d seeds × %d reps exceeds %d cells",
			len(protocols), len(networks), len(seeds), reps, maxSweepCells)
	}
	var cells []SweepCell
	var exps []*Experiment
	for _, p := range protocols {
		for _, nw := range networks {
			for _, seed := range seeds {
				for rep := 0; rep < reps; rep++ {
					rc := base
					rc.Protocol = p
					rc.Network = nw
					rc.Seed = lab.RepSeed(seed, rep)
					// Every cell passes New first, so a conflicted config
					// fails a sweep with the same error as a single run.
					exp, err := New(rc)
					if err != nil {
						return nil, nil, err
					}
					if sessions {
						exps = append(exps, exp)
					}
					cells = append(cells, SweepCell{Index: len(cells), Protocol: p, Network: nw, Seed: seed, Rep: rep, Config: exp.cfg})
				}
			}
		}
	}
	for _, nw := range networks {
		if nw == NetworkTestbedUDP {
			return nil, nil, fmt.Errorf("bulletprime: sweeps do not support the testbed network (parallel wall-clock cells contend on real time); run testbed experiments one at a time")
		}
	}
	return cells, exps, nil
}

// SweepStream runs the sweep as one session per cell over a worker pool
// and streams each cell's result as it completes (completion order, not
// index order — use SweepRun.Index to reorder). The observe callback, when
// non-nil, runs just before each cell starts and may Subscribe to the
// cell's session for live per-cell progress; it is invoked concurrently
// from up to Parallel worker goroutines, so callbacks touching shared
// state must synchronize. Cancelling ctx stops running
// cells mid-flight and skips the runs of unstarted ones; every cell still
// emits exactly one SweepRun (stopped and skipped cells carry
// Result.Cancelled), so the consumer MUST drain the channel until it
// closes. Every completed cell is bit-identical to Run with the same
// single config.
func SweepStream(ctx context.Context, cfg SweepConfig, observe func(SweepCell, *Experiment)) (<-chan SweepRun, error) {
	return sweepStream(ctx, cfg, observe, false)
}

func sweepStream(ctx context.Context, cfg SweepConfig, observe func(SweepCell, *Experiment), noSample bool) (<-chan SweepRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cells, exps, err := cfg.expand(true)
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		e.noSample = noSample
	}
	parallel := cfg.Base.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(exps) {
		parallel = len(exps)
	}
	out := make(chan SweepRun)
	go func() {
		defer close(out)
		if len(exps) == 0 {
			return
		}
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(exps) {
						return
					}
					var res *Result
					var runID string
					var recErr error
					if ctx.Err() != nil {
						// The sweep was cancelled before this cell started;
						// report it without paying for rig construction.
						res = &Result{CompletionTimes: map[int]float64{}, Cancelled: true}
					} else {
						if observe != nil {
							observe(cells[i], exps[i])
						}
						// Start may fail only when the observe callback
						// already started the cell itself; Wait covers both.
						_ = exps[i].Start(ctx)
						// Wait's error is the cell's archival failure (when
						// Base.Archive is set); it rides along in SweepRun.Err.
						res, recErr = exps[i].Wait()
						runID = exps[i].RunID()
						if res == nil {
							// Unreachable after a Start attempt, but a nil
							// Result must never reach the stream's consumers.
							res, recErr = &Result{CompletionTimes: map[int]float64{}, Cancelled: true}, nil
						}
					}
					// Delivery blocks: the consumer contract is to drain
					// until close, and a cancelled run's partial result is
					// exactly what the consumer cancelled to get.
					out <- SweepRun{SweepCell: cells[i], Result: res, RunID: runID, Err: recErr}
				}
			}()
		}
		wg.Wait()
	}()
	return out, nil
}

// Sweep fans the cross product of the config across a worker pool of
// sessions and returns one entry per run, ordered protocol-major, then
// network, then seed: the one-shot compatibility wrapper over SweepStream.
// Every cell is bit-identical to Run with the same single config.
func Sweep(cfg SweepConfig) ([]SweepRun, error) {
	ch, err := sweepStream(context.Background(), cfg, nil, true)
	if err != nil {
		return nil, err
	}
	var runs []SweepRun
	for r := range ch {
		runs = append(runs, r)
	}
	ordered := make([]SweepRun, len(runs))
	for _, r := range runs {
		ordered[r.Index] = r
	}
	return ordered, nil
}
