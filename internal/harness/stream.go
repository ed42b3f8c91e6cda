package harness

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/stream"
)

// StreamSpec turns a sweep cell into a live-streaming run: instead of
// distributing a fixed file as fast as possible, the source emits one block
// every BlockSize/BitrateBps seconds for Duration seconds, and every member
// is tracked as a viewer playing the stream behind the live edge
// (stream.Tracker). The run ends when every viewer holds the full stream or
// the drain window after the last emission expires, whichever comes first —
// not at SweepSpec.Deadline, which stays a hard upper bound.
type StreamSpec struct {
	// BitrateBps is the source emission rate in bytes per second.
	BitrateBps float64
	// Duration is how long the source emits, in virtual seconds.
	Duration float64
	// PlayoutDepth is the viewer buffer depth in seconds of content;
	// <= 0 picks DefaultPlayoutDepth.
	PlayoutDepth float64
	// Warmup excludes the startup transient from steady-state goodput;
	// < 0 picks min(Duration/4, DefaultWarmupCap). 0 means no warmup.
	Warmup float64
	// Drain is how long the run may continue past the last block's emission
	// so trailing viewers catch up; <= 0 picks DefaultDrain.
	Drain float64
}

// Streaming defaults; see StreamSpec field docs.
const (
	DefaultPlayoutDepth = 4.0
	DefaultWarmupCap    = 10.0
	DefaultDrain        = 15.0
)

// Normalized returns the spec with defaults applied — the one source of the
// streaming defaults, which the façade applies through it too. It is
// idempotent, and it panics on a rate or duration that cannot describe a
// stream: StreamSpec reaches it either from the façade (which validated
// it) or from test code, where a loud failure beats an empty run.
func (sp StreamSpec) Normalized() StreamSpec {
	if sp.BitrateBps <= 0 || sp.Duration <= 0 {
		panic(fmt.Sprintf("harness: StreamSpec needs positive BitrateBps and Duration (got %v, %v)",
			sp.BitrateBps, sp.Duration))
	}
	if sp.PlayoutDepth <= 0 {
		sp.PlayoutDepth = DefaultPlayoutDepth
	}
	if sp.Warmup < 0 {
		sp.Warmup = sp.Duration / 4
		if sp.Warmup > DefaultWarmupCap {
			sp.Warmup = DefaultWarmupCap
		}
	}
	if sp.Drain <= 0 {
		sp.Drain = DefaultDrain
	}
	return sp
}

// config converts the (normalized) spec to the tracker's model config.
func (sp StreamSpec) config(blockSize float64) stream.Config {
	return stream.Config{
		BitrateBps:   sp.BitrateBps,
		BlockSize:    blockSize,
		Duration:     sp.Duration,
		PlayoutDepth: sp.PlayoutDepth,
		Warmup:       sp.Warmup,
	}
}

// endTime is the natural end bound of a streaming run: emission plus drain,
// pushed out by the latest flash-crowd wave start when the scenario staggers
// sessions (each wave streams its own copy from its own start time).
func (sp StreamSpec) endTime(prog *scenario.Program) sim.Time {
	end := sp.Duration + sp.Drain
	if prog != nil {
		for _, w := range prog.Waves() {
			if t := w.At + sp.Duration + sp.Drain; t > end {
				end = t
			}
		}
	}
	return sim.Time(end)
}

// installStream builds the run's tracker on the rig: viewers join as
// sessions register them, every novel block arrival flows into the tracker
// before any observer hook, and annotations ride the rig's annotation hook.
// Must run after Hooks install OnBlock/Annotate and before system
// construction (BuildCtx snapshots rig.OnBlock).
func installStream(rig *Rig, sp StreamSpec, blockSize float64) {
	tr := stream.NewTracker(sp.config(blockSize), func() float64 {
		return float64(rig.Eng.Now())
	})
	tr.Annotate = rig.Annotate
	rig.Stream = tr
	rig.StreamBps = sp.BitrateBps
	prev := rig.OnBlock
	if prev == nil {
		rig.OnBlock = tr.OnBlock
	} else {
		rig.OnBlock = func(node netem.NodeID, blockID, count int) {
			tr.OnBlock(node, blockID, count)
			prev(node, blockID, count)
		}
	}
}

// joinViewers registers one session cohort's receivers as viewers starting
// at the given time; the cohort's first member is its source, which emits
// rather than watches.
func joinViewers(rig *Rig, cohort []netem.NodeID, at float64) {
	if rig.Stream == nil {
		return
	}
	for _, id := range cohort[1:] {
		rig.Stream.Join(id, at)
	}
}
