package bulletprime

import (
	"fmt"
	"sort"
	"sync"

	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// The protocol and network registries make the experiment façade open:
// RunConfig.Protocol and RunConfig.Network resolve through them instead of
// switch statements, so a downstream package can plug in a new
// dissemination system or emulated environment and round-trip it through
// New/Run/Sweep without touching any internals. Protocols live in the
// harness's one system registry, keyed by their Protocol name, where each
// entry also records what it can run on (sharded, streaming); the paper
// systems register there at init, the paper presets here.

// System is one protocol session driven by the harness: Start begins
// dissemination, Complete reports whether every receiver finished, DoneAt
// is the completion time of the last. Registered protocol builders return
// one.
type System = harness.System

// BuildContext carries what a protocol builder needs to construct a
// session: the rig (engine, emulated network, runtime, seeded RNG), the
// cohort, the workload, and the harness's observation callbacks. Builders
// must wire OnComplete into their session and should wire OnBlock.
type BuildContext = harness.BuildCtx

// SystemBuilder constructs a protocol session from a build context.
type SystemBuilder = harness.SystemBuilder

// TopologyFn builds a concrete emulated topology from a seeded RNG, so
// topology draws are reproducible per seed.
type TopologyFn = func(*sim.RNG) *netem.Topology

// NetworkBuilder returns the topology generator for an overlay of the
// given size. Registered networks are invoked once per run with the
// validated node count.
type NetworkBuilder func(nodes int) TopologyFn

var (
	registryMu sync.RWMutex
	networks   = make(map[NetworkPreset]NetworkBuilder)
)

// RegisterProtocol adds a dissemination system to the open registry under
// the given RunConfig.Protocol name; it runs on the sequential engine and
// the testbed. It panics on an empty name, nil builder, or duplicate —
// registration is an init-time act, like http.Handle.
func RegisterProtocol(name Protocol, build SystemBuilder) {
	if name == "" {
		panic("bulletprime: RegisterProtocol with empty name")
	}
	// The harness registry rejects nil builders and duplicate names.
	harness.RegisterSystem(string(name), harness.SystemEntry{Build: build})
}

// RegisterNetwork adds an emulated environment to the open registry under
// the given RunConfig.Network name. Same panic rules as RegisterProtocol.
func RegisterNetwork(name NetworkPreset, build NetworkBuilder) {
	if name == "" {
		panic("bulletprime: RegisterNetwork with empty name")
	}
	if build == nil {
		panic("bulletprime: RegisterNetwork with nil builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := networks[name]; dup {
		panic(fmt.Sprintf("bulletprime: network %q already registered", name))
	}
	networks[name] = build
}

// Protocols lists every registered protocol, sorted.
func Protocols() []Protocol {
	names := harness.SystemNames()
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// Networks lists every registered network preset, sorted.
func Networks() []NetworkPreset {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]NetworkPreset, 0, len(networks))
	for n := range networks {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lookupNetwork resolves a network preset to its builder.
func lookupNetwork(name NetworkPreset) (NetworkBuilder, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := networks[name]
	return b, ok
}

// The paper systems self-register in the harness under their Protocol
// names; the paper presets register their topology generators here.
func init() {
	networks[NetworkModelNet] = func(n int) TopologyFn { return harness.ModelNetTopology(n) }
	networks[NetworkModelNetClean] = func(n int) TopologyFn { return harness.LosslessModelNetTopology(n) }
	networks[NetworkConstrained] = func(n int) TopologyFn { return harness.ConstrainedAccessTopology(n) }
	networks[NetworkHighBDP] = func(n int) TopologyFn { return harness.HighBDPTopology(n, 0, 0) }
	networks[NetworkPlanetLab] = func(n int) TopologyFn { return harness.PlanetLabTopology(n) }
	networks[NetworkClustered] = func(n int) TopologyFn { return harness.ClusteredTopology(n, 0) }
	networks[NetworkClusteredCompact] = func(n int) TopologyFn { return harness.ClusteredTopologyCompact(n, 0) }
	// The testbed is not an emulated environment: its topology only shapes
	// the overlay (node count, membership) — traffic rides real UDP sockets
	// (internal/testbed), routed there by the spec's TestbedSpec. A neutral
	// lossless topology keeps overlay construction identical to clean
	// emulated runs.
	networks[NetworkTestbedUDP] = func(n int) TopologyFn { return harness.LosslessModelNetTopology(n) }
}
