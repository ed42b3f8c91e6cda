package bulletprime

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bulletprime/internal/harness"
)

// TestEntryPointsAgreeOnRejections pins the one rejection check: every
// combination of backend, feature, and protocol that cannot run fails with
// the same error through New, through Sweep, and as RunResult.Err from
// harness.RunSpec on the lowered spec — never with a panic.
func TestEntryPointsAgreeOnRejections(t *testing.T) {
	testbed := RunConfig{Nodes: 8, FileBytes: 64 * 1024, Network: NetworkTestbedUDP, Seed: 1}
	sharded := RunConfig{Protocol: ProtocolScalefill, Nodes: 100, FileBytes: 1.5e6,
		Network: NetworkClustered, Engine: EngineSharded, Seed: 1}
	stream := RunConfig{Nodes: 8, Seed: 1, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 10}}
	cases := []struct {
		name string
		base RunConfig
		mut  func(*RunConfig)
		want string
	}{
		{"testbed×sharded", testbed, func(c *RunConfig) { c.Engine = EngineSharded }, "sharded engine"},
		{"testbed×scenario", testbed, func(c *RunConfig) { c.Scenario = &Scenario{} }, "scenarios"},
		{"testbed×DynamicBandwidth", testbed, func(c *RunConfig) { c.DynamicBandwidth = true }, "DynamicBandwidth"},
		{"sharded×scenario", sharded, func(c *RunConfig) { c.Scenario = &Scenario{} }, "scenarios"},
		{"sharded×DynamicBandwidth", sharded, func(c *RunConfig) { c.DynamicBandwidth = true }, "DynamicBandwidth"},
		{"stream×sharded", stream, func(c *RunConfig) {
			c.Engine, c.Network, c.Nodes = EngineSharded, NetworkClustered, 100
		}, "sequential engine"},
		{"stream×testbed", stream, func(c *RunConfig) { c.Network = NetworkTestbedUDP }, "testbed"},
		{"stream×non-capable protocol", stream, func(c *RunConfig) { c.Protocol = ProtocolBitTorrent },
			"does not support live streaming"},
		{"sequential-only protocol on sharded", sharded, func(c *RunConfig) { c.Protocol = ProtocolBulletPrime },
			"not registered for sharded"},
		{"sharded-only protocol on sequential", sharded, func(c *RunConfig) { c.Engine = EngineSequential },
			"needs EngineSharded"},
		{"unknown protocol", stream, func(c *RunConfig) { c.Protocol = "nosuch" }, "unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.base
			tc.mut(&cfg)

			_, errNew := New(cfg)
			if errNew == nil || !strings.Contains(errNew.Error(), tc.want) {
				t.Fatalf("New error = %v, want substring %q", errNew, tc.want)
			}
			_, errSweep := Sweep(SweepConfig{Base: cfg, Seeds: []int64{1, 2}})
			if errSweep == nil || errSweep.Error() != errNew.Error() {
				t.Fatalf("Sweep error = %v, want New's %q", errSweep, errNew)
			}

			// The harness path: lower the config without New's check and
			// run it directly.
			norm, err := cfg.normalized()
			if err != nil {
				t.Fatalf("field validation rejected the config: %v", err)
			}
			spec, _ := buildSpec(norm)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RunSpec panicked: %v", r)
				}
			}()
			res := harness.RunSpec(spec)
			if res.Err == nil || res.Err.Error() != errNew.Error() {
				t.Fatalf("RunSpec Err = %v, want New's %q", res.Err, errNew)
			}
		})
	}
}

// TestProtocolsListsEveryEngine checks that the one registry exposes
// sharded-only protocols through the façade listing too.
func TestProtocolsListsEveryEngine(t *testing.T) {
	for _, p := range []Protocol{ProtocolBulletPrime, ProtocolStream, ProtocolScalefill} {
		if !slices.Contains(Protocols(), p) {
			t.Errorf("Protocols() = %v, missing %q", Protocols(), p)
		}
	}
}

// TestNormalizedIdempotent pins that a normalized config — what
// Experiment.Config returns and what Sweep hands each cell — normalizes to
// itself, including a disabled stream warmup and the derived stream size.
func TestNormalizedIdempotent(t *testing.T) {
	cases := map[string]RunConfig{
		"stream defaults": {Nodes: 8, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 10}},
		"stream warmup disabled": {Nodes: 8, Protocol: ProtocolStream,
			Stream: &StreamOptions{BitrateBps: 48 * 1024, Duration: 7, Warmup: -1, PlayoutDepth: 2, Drain: 5}},
		"stream explicit warmup": {Nodes: 8, BlockSize: 8192,
			Stream: &StreamOptions{BitrateBps: 1000, Duration: 3, Warmup: 1.5}},
		"testbed": {Nodes: 8, FileBytes: 1 << 20, Network: NetworkTestbedUDP, SampleEvery: -3},
		"sharded": {Protocol: ProtocolScalefill, Nodes: 100, FileBytes: 1.5e6, Network: NetworkClustered,
			Engine: EngineSharded, Shards: 4, ShardWorkers: 1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			once, err := cfg.normalized()
			if err != nil {
				t.Fatal(err)
			}
			twice, err := once.normalized()
			if err != nil {
				t.Fatalf("re-normalizing: %v", err)
			}
			if !reflect.DeepEqual(once, twice) {
				t.Fatalf("normalized twice = %+v, once = %+v", twice, once)
			}
		})
	}
}

// TestStreamSweepMatchesRun runs a stream config as a sweep base: every
// cell must be bit-identical to Run with the same seed.
func TestStreamSweepMatchesRun(t *testing.T) {
	base := RunConfig{Nodes: 10, Network: NetworkModelNetClean,
		Stream: &StreamOptions{BitrateBps: 32 * 1024, Duration: 8, Warmup: -1}}
	runs, err := Sweep(SweepConfig{Base: base, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d cells, want 2", len(runs))
	}
	for _, r := range runs {
		cfg := base
		cfg.Seed = r.Seed
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Result
		if !reflect.DeepEqual(got.CompletionTimes, want.CompletionTimes) ||
			got.Elapsed != want.Elapsed || got.Finished != want.Finished ||
			got.ControlOverhead != want.ControlOverhead {
			t.Fatalf("seed %d: sweep cell differs from Run", r.Seed)
		}
		if got.Stream == nil || !reflect.DeepEqual(got.Stream, want.Stream) {
			t.Fatalf("seed %d: stream report differs from Run", r.Seed)
		}
	}
}
