package harness

import (
	"time"

	"bulletprime/internal/netem"
	"bulletprime/internal/testbed"
)

// TestbedSpec switches a spec's run from the emulated network to the
// real-socket UDP backend (internal/testbed): the topology still shapes the
// overlay (node count, membership), but every connection's traffic rides
// UDP datagrams on real sockets, and the engine's virtual clock is driven
// by the wall clock at Rate. See DESIGN.md §10.
type TestbedSpec struct {
	// ListenHost is the bind address for nodes without a Peers entry;
	// default 127.0.0.1 with auto-assigned ports (loopback mode).
	ListenHost string
	// Peers pins listen addresses ("host:port") per node — the address
	// table of a multi-host deployment.
	Peers map[int]string
	// Rate is virtual seconds per wall second; <= 0 means 1 (real time).
	Rate float64
	// RTO is the wall-clock retransmission timeout in seconds before the
	// first resend; <= 0 picks the transport default (50 ms).
	RTO float64
	// MaxRetries bounds resends per frame; <= 0 picks the default (8).
	MaxRetries int
	// DropProb injects deterministic uniform loss on every transmission
	// attempt (test hook); DropSeed seeds the injector.
	DropProb float64
	DropSeed int64
}

// runSpecTestbed executes one spec over the UDP testbed. The spec's system
// builds exactly as in an emulated run — same registry, same rig — but the
// runtime's transport routes all traffic over real sockets, and
// testbed.Run paces the engine against the wall clock instead of draining
// the event queue flat out. Check has already rejected the emulator-only
// features (sharded engine, scenarios, netem dynamics, streams); a socket
// setup failure returns RunResult.Err.
func runSpecTestbed(s SweepSpec) *RunResult {
	rig := NewRig(s.topology(), s.Seed)
	clock := testbed.NewClock(s.Testbed.Rate)
	cfg := testbed.Config{
		ListenHost: s.Testbed.ListenHost,
		RTO:        time.Duration(s.Testbed.RTO * float64(time.Second)),
		MaxRetries: s.Testbed.MaxRetries,
		DropProb:   s.Testbed.DropProb,
		DropSeed:   s.Testbed.DropSeed,
	}
	if len(s.Testbed.Peers) > 0 {
		cfg.Peers = make(map[netem.NodeID]string, len(s.Testbed.Peers))
		for id, addr := range s.Testbed.Peers {
			cfg.Peers[netem.NodeID(id)] = addr
		}
	}
	tr, err := testbed.New(clock, cfg, rig.Members)
	if err != nil {
		return failed(&s, err)
	}
	defer tr.Stop()
	rig.RT.Transport = tr
	if s.Tracer != nil {
		rig.RT.Tracer = s.Tracer
		// Retransmissions surface as trace spans; the transport invokes the
		// callback on the run-loop goroutine, so it feeds the same tracer as
		// the protocol-decision sites with no extra synchronization.
		tr.Trace = rig.RT.Trace
	}

	stop := s.Hooks.install(rig)
	sys := rig.BuildNamedSystem(s.systemName(), s.Workload, s.CoreMut, rig.Members, "")
	rigs := []*Rig{rig}
	if s.Hooks.start(rigs, sys) {
		scheduleTicks(rigs, sys, s.Hooks, s.Deadline)
	}
	sys.Start()
	return finish(&s, rigs, sys, testbed.Run(rig.Eng, tr, clock, s.Deadline, sys.Complete, stop))
}
