package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// SweepSpec describes one independent rig of a sweep: the same inputs RunOne
// takes, bundled so a seeds × protocols × presets cross product can be built
// up front and fanned across workers.
type SweepSpec struct {
	Label  string
	Seed   int64
	TopoFn func(*sim.RNG) *netem.Topology
	// System names the protocol from the open registry (RegisterSystem):
	// the façade's Protocol name, or a ProtoKind's registry name, which
	// RunOne lowers to.
	System   string
	Workload Workload
	CoreMut  func(*core.Config)
	Deadline sim.Time

	// Engine selects the execution engine. EngineSequential (the zero
	// value) runs the classic single-threaded loop; EngineSharded
	// partitions the run by topology cluster and executes shards in
	// parallel under a conservative clock. Sharded runs require a clustered
	// TopoFn and a system with a sharded builder; Check lists the features
	// each engine supports.
	Engine EngineMode

	// Shards is the shard count for EngineSharded; <= 0 picks the default
	// (DefaultShards, capped at the cluster count). Results depend on the
	// shard count — it is part of the experiment's identity, never derived
	// from the host's core count.
	Shards int

	// Workers caps the goroutines driving a sharded run: 1 runs all shards
	// cooperatively on one goroutine (the bit-exact oracle of the parallel
	// mode), any other value runs one goroutine per shard. Results never
	// depend on Workers.
	Workers int

	// Scenario optionally applies a compiled scenario program — declarative
	// link dynamics (the façade's DynamicBandwidth among them), trace
	// replay, outages, churn, and flash-crowd waves — to the rig. A Program is immutable, so one compiled scenario fans
	// across every seed of a sweep; per-seed randomness comes from each
	// rig's master RNG, keeping every cell bit-identical to a sequential
	// run of the same seed.
	Scenario *scenario.Program

	// Stream, when non-nil, makes the run a live stream: the source paces
	// block emission at Stream.BitrateBps for Stream.Duration, every member
	// becomes a tracked viewer, and RunResult.Stream reports lag, jitter,
	// rebuffering, and goodput. The Workload's FileBytes may be left zero to
	// derive the content size from the stream geometry. Incompatible with
	// EngineSharded and Testbed; requires a stream-capable system
	// (SystemEntry.Stream).
	Stream *StreamSpec

	// Testbed, when non-nil, makes the real-socket UDP backend the rig's
	// transport in place of the emulated network: same run path, same rig,
	// same registered system, wall-clock-driven virtual time. Incompatible
	// with EngineSharded, Scenario, and Stream (RunResult.Err reports the
	// conflict). See TestbedSpec.
	Testbed *TestbedSpec

	// Hooks optionally observe the run (sampling ticks, block callbacks,
	// annotations) and steer it (early stop). Hooks only read state, so an
	// observed cell stays bit-identical to an unobserved one. Note that
	// hook closures are per-spec: a spec sharing Hooks across Sweep workers
	// must make its callbacks goroutine-safe.
	Hooks *Hooks

	// Tracer, when non-nil, records typed protocol-decision spans (sender
	// trims and promotions, rechokes, reconcile rounds, stream rebuffers,
	// testbed retransmits) into its bounded ring. Tracing only reads run
	// state, so a traced run stays bit-identical to an untraced one. For
	// sharded runs each shard records into a private tracer and the spans
	// are merged deterministically into this one after the run.
	Tracer *obs.Tracer
}

// Sweep runs every spec across a pool of parallel workers and returns the
// results in spec order. Each worker owns one rig at a time — one engine per
// goroutine — so every run is bit-identical to a sequential RunOne with the
// same spec: determinism is per seed, not per schedule. parallel <= 0 uses
// GOMAXPROCS.
func Sweep(specs []SweepSpec, parallel int) []*RunResult {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	results := make([]*RunResult, len(specs))
	if len(specs) == 0 {
		return results
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
				if i >= len(specs) {
					return
				}
				// Workers write disjoint slots; the WaitGroup publishes them.
				results[i] = RunSpec(specs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// AggregateCDF merges the completion-time CDFs of every result into one,
// e.g. pooling all seeds of one protocol into a single curve.
func AggregateCDF(results []*RunResult) *trace.CDF {
	out := &trace.CDF{}
	for _, r := range results {
		if r != nil {
			out.Merge(r.CDF)
		}
	}
	return out
}
