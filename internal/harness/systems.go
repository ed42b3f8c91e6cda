package harness

import (
	"fmt"
	"sort"
	"sync"

	"bulletprime/internal/bittorrent"
	"bulletprime/internal/bullet"
	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/splitstream"
)

// BuildCtx carries everything a protocol needs to construct one session on
// a rig: the cohort, workload, and the harness's observation callbacks. A
// builder must wire OnComplete (completion-time recording depends on it)
// and should wire OnBlock when its protocol can report per-node block
// arrivals.
type BuildCtx struct {
	Rig      *Rig
	Workload Workload
	// CoreMut tweaks Bullet' config (strategies, static peers, outstanding
	// limits); builders for other systems may ignore it.
	CoreMut func(*core.Config)
	// Members is the session cohort; the first member is the source.
	Members []netem.NodeID
	// StreamSuffix distinguishes the RNG streams of concurrent sessions
	// (flash-crowd waves) on one rig; empty for the classic single session.
	StreamSuffix string
	// OnComplete records a node's completion time; never nil.
	OnComplete func(netem.NodeID)
	// OnBlock, when non-nil, wants every novel block arrival
	// (node, block id, blocks held). Builders chain it after any
	// CoreMut-installed callback rather than replacing one.
	OnBlock func(node netem.NodeID, blockID, count int)
	// StreamBps, when positive, asks the session to pace its source at this
	// rate (live-streaming mode). Only entries registered with Stream set
	// receive it; Check rejects a stream on any other system.
	StreamBps float64
}

// SystemBuilder constructs a protocol session on one rig from a build
// context.
type SystemBuilder func(BuildCtx) System

// SystemEntry is one protocol in the open registry. Its capabilities are
// data: it runs on the sequential engine and the testbed when it has Build,
// on the sharded engine when it has BuildSharded, and carries a live
// stream when Stream is set. Check derives every protocol rejection from
// these fields.
type SystemEntry struct {
	// Build constructs a session over one rig's cohort; nil for a
	// sharded-only system.
	Build SystemBuilder
	// BuildSharded constructs one session spanning every slot of a sharded
	// rig; nil for a system that cannot run sharded.
	BuildSharded func(*ShardedRig, Workload) System
	// Stream marks Build as honouring BuildCtx.StreamBps.
	Stream bool
}

var (
	systemsMu sync.RWMutex
	systems   = make(map[string]SystemEntry)
)

// RegisterSystem adds a protocol to the open registry under its façade
// Protocol name, so third parties plug new protocols into the harness (and,
// via the bulletprime façade, into RunConfig.Protocol) without touching any
// switch statement. It panics on an empty name, an entry with no builder,
// or a duplicate — registration is an init-time programming act, like
// http.Handle.
func RegisterSystem(name string, e SystemEntry) {
	if name == "" {
		panic("harness: RegisterSystem with empty name")
	}
	if e.Build == nil && e.BuildSharded == nil {
		panic("harness: RegisterSystem with nil builder")
	}
	systemsMu.Lock()
	defer systemsMu.Unlock()
	if _, dup := systems[name]; dup {
		panic(fmt.Sprintf("harness: system %q already registered", name))
	}
	systems[name] = e
}

// LookupSystem returns the registry entry for name, or false.
func LookupSystem(name string) (SystemEntry, bool) {
	systemsMu.RLock()
	defer systemsMu.RUnlock()
	e, ok := systems[name]
	return e, ok
}

// SystemNames lists every registered system, sorted.
func SystemNames() []string {
	return systemNamesWhere(func(SystemEntry) bool { return true })
}

// systemNamesWhere lists the registered systems whose entry satisfies
// keep, sorted.
func systemNamesWhere(keep func(SystemEntry) bool) []string {
	systemsMu.RLock()
	defer systemsMu.RUnlock()
	var names []string
	for n, e := range systems {
		if keep(e) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// The four paper systems self-register under their façade names, so
// BuildSystem's kind-based callers resolve through the same registry as
// third-party protocols.
func init() {
	RegisterSystem(KindBulletPrime.system(), SystemEntry{Build: buildBulletPrime, Stream: true})
	RegisterSystem(KindBullet.system(), SystemEntry{Build: buildBullet, Stream: true})
	RegisterSystem(KindBitTorrent.system(), SystemEntry{Build: buildBitTorrent})
	RegisterSystem(KindSplitStream.system(), SystemEntry{Build: buildSplitStream})
	// "stream" is Bullet' with delay-gradient sender selection (DESIGN.md
	// §11): same session, Config.Selection flipped before CoreMut so
	// experiments can still override it.
	RegisterSystem("stream", SystemEntry{Build: buildBulletPrimeDelay, Stream: true})
}

func buildBulletPrime(ctx BuildCtx) System {
	cfg := core.Config{
		Source:     ctx.Members[0],
		Members:    ctx.Members,
		NumBlocks:  ctx.Workload.NumBlocks(),
		BlockSize:  ctx.Workload.BlockSize,
		Strategy:   core.RarestRandom,
		StreamBps:  ctx.StreamBps,
		OnComplete: ctx.OnComplete,
	}
	if ctx.CoreMut != nil {
		ctx.CoreMut(&cfg)
	}
	cfg.OnBlock = chainOnBlock(cfg.OnBlock, ctx.OnBlock)
	return core.NewSession(ctx.Rig.RT, cfg, ctx.Rig.Master.Stream("bulletprime"+ctx.StreamSuffix))
}

func buildBulletPrimeDelay(ctx BuildCtx) System {
	mut := ctx.CoreMut
	ctx.CoreMut = func(cfg *core.Config) {
		cfg.Selection = core.SelectDelay
		if mut != nil {
			mut(cfg)
		}
	}
	return buildBulletPrime(ctx)
}

func buildBullet(ctx BuildCtx) System {
	return bullet.NewSession(ctx.Rig.RT, bullet.Config{
		Source:     ctx.Members[0],
		Members:    ctx.Members,
		NumBlocks:  ctx.Workload.NumBlocks(),
		BlockSize:  ctx.Workload.BlockSize,
		StreamBps:  ctx.StreamBps,
		OnBlock:    ctx.OnBlock,
		OnComplete: ctx.OnComplete,
	}, ctx.Rig.Master.Stream("bullet"+ctx.StreamSuffix))
}

func buildBitTorrent(ctx BuildCtx) System {
	return bittorrent.NewSession(ctx.Rig.RT, bittorrent.Config{
		Source:     ctx.Members[0],
		Members:    ctx.Members,
		NumBlocks:  ctx.Workload.NumBlocks(),
		BlockSize:  ctx.Workload.BlockSize,
		OnBlock:    ctx.OnBlock,
		OnComplete: ctx.OnComplete,
	}, ctx.Rig.Master.Stream("bittorrent"+ctx.StreamSuffix))
}

func buildSplitStream(ctx BuildCtx) System {
	return splitstream.NewSession(ctx.Rig.RT, splitstream.Config{
		Source:     ctx.Members[0],
		Members:    ctx.Members,
		NumBlocks:  ctx.Workload.NumBlocks(),
		BlockSize:  ctx.Workload.BlockSize,
		OnBlock:    ctx.OnBlock,
		OnComplete: ctx.OnComplete,
	}, ctx.Rig.Master.Stream("splitstream"+ctx.StreamSuffix))
}

// chainOnBlock composes two block callbacks, either of which may be nil.
func chainOnBlock(a, b func(netem.NodeID, int, int)) func(netem.NodeID, int, int) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(id netem.NodeID, blockID, count int) {
		a(id, blockID, count)
		b(id, blockID, count)
	}
}

// DuplicateCounter is an optional System extension: sessions that track
// duplicate block deliveries expose them for the observer's
// useful-vs-duplicate byte accounting. All four paper systems implement it.
type DuplicateCounter interface {
	DuplicateBlocks() int
}

// SystemDuplicates returns the system's duplicate-block count, descending
// into flash-crowd wave sessions; systems without the extension report 0.
func SystemDuplicates(sys System) int {
	switch s := sys.(type) {
	case DuplicateCounter:
		return s.DuplicateBlocks()
	case *waveSystem:
		total := 0
		for i := range s.waves {
			total += SystemDuplicates(s.waves[i].sys)
		}
		return total
	}
	return 0
}
