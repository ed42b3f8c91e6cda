package harness

import (
	"time"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
	"bulletprime/internal/testbed"
)

// TestbedSpec switches a spec's run from the emulated network to the
// real-socket UDP backend (internal/testbed): the topology still shapes the
// overlay (node count, membership), but every connection's traffic rides
// UDP datagrams on real sockets, and the engine's virtual clock is driven
// by the wall clock at Rate. The zero value is the loopback default
// (127.0.0.1, real-time clock, 50 ms RTO, 8 retries, no injected loss).
// The façade exposes it as bulletprime.TestbedOptions. See DESIGN.md §10.
type TestbedSpec struct {
	// ListenHost is the bind address for nodes without a Peers entry;
	// empty means 127.0.0.1 with auto-assigned ports (loopback mode).
	ListenHost string
	// Peers pins listen addresses ("host:port") per node id — the address
	// table of a multi-host deployment.
	Peers map[int]string
	// Rate is virtual seconds per wall second; 0 means 1 (real time).
	// Raising it accelerates the protocols' periodic timers against the
	// wall clock.
	Rate float64
	// RTO is the wall-clock retransmission timeout in seconds before the
	// first resend (each retry doubles it); 0 picks the default 50 ms.
	RTO float64
	// MaxRetries bounds resends per frame before the node pair is declared
	// dead; 0 picks the default 8.
	MaxRetries int
	// DropProb injects deterministic uniform packet loss on every
	// transmission attempt (a test hook; DropSeed seeds the injector).
	DropProb float64
	DropSeed int64
}

// attachTestbed makes the UDP testbed the rig's transport: the system
// builds exactly as in an emulated run — same registry, same rig — but all
// traffic rides real sockets. It returns the wall-clock run loop that paces
// the engine in place of draining the event queue flat out, and the
// transport's shutdown; a socket setup failure is returned as the error.
func attachTestbed(rig *Rig, spec *TestbedSpec) (runLoop, func(), error) {
	clock := testbed.NewClock(spec.Rate)
	cfg := testbed.Config{
		ListenHost: spec.ListenHost,
		RTO:        time.Duration(spec.RTO * float64(time.Second)),
		MaxRetries: spec.MaxRetries,
		DropProb:   spec.DropProb,
		DropSeed:   spec.DropSeed,
	}
	if len(spec.Peers) > 0 {
		cfg.Peers = make(map[netem.NodeID]string, len(spec.Peers))
		for id, addr := range spec.Peers {
			cfg.Peers[netem.NodeID(id)] = addr
		}
	}
	tr, err := testbed.New(clock, cfg, rig.Members)
	if err != nil {
		return nil, nil, err
	}
	rig.RT.Transport = tr
	// Retransmissions surface as trace spans; the transport invokes the
	// callback on the run-loop goroutine, so it feeds the same tracer as
	// the protocol-decision sites with no extra synchronization.
	tr.Trace = rig.RT.Trace
	loop := func(rig *Rig, sys System, deadline sim.Time, stop func() bool) bool {
		return testbed.Run(rig.Eng, tr, clock, deadline, sys.Complete, stop)
	}
	return loop, tr.Stop, nil
}
