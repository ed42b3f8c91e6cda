package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"bulletprime"
)

// workload is one fixed set of experiments the benchmark runs.
type workload struct {
	name string
	// base returns the workload's experiment, run once per input seed.
	// Every config runs closed-loop: Parallel 1 (one sweep cell at a time)
	// and, on the sharded engine, ShardWorkers 1 (all shards on one
	// goroutine).
	base func() bulletprime.RunConfig
	// inputs is how many seeds one pass runs base with, all derived from
	// the benchmark's --seed. More than one evens out how much work a pass
	// does from one seed to the next.
	inputs int
	// protocols, when set, makes the workload a Sweep of base over them
	// and the input seeds; otherwise it is one run per input seed.
	protocols []bulletprime.Protocol
	// archived workloads record every run into a fresh archive and read
	// the records back as part of the timed pass.
	archived bool
}

// paperProtocols are the four systems the paper compares (§4).
var paperProtocols = []bulletprime.Protocol{
	bulletprime.ProtocolBulletPrime,
	bulletprime.ProtocolBullet,
	bulletprime.ProtocolBitTorrent,
	bulletprime.ProtocolSplitStream,
}

var workloads = []workload{
	// The paper's headline experiment (§4.1, Fig. 5): four protocols on a
	// lossy 100-node mesh whose bandwidth keeps halving. It is the only
	// workload that runs bullet, bittorrent, splitstream, scenario and lab.
	{
		name:      "paper-dynamic",
		inputs:    3,
		protocols: paperProtocols,
		archived:  true,
		base: func() bulletprime.RunConfig {
			return bulletprime.RunConfig{
				Nodes:     100,
				FileBytes: 10e6,
				Network:   bulletprime.NetworkModelNet,
				Scenario:  paperDegrade(),
				Parallel:  1,
			}
		},
	},
	// A Bullet' live stream to 499 viewers on a static lossless mesh: the
	// protocol-message and allocation-heavy path, with light fair-share
	// churn. One run's CPU time varies by about ±20% with its seed, hence
	// six inputs a pass.
	{
		name:   "stream-500",
		inputs: 6,
		base: func() bulletprime.RunConfig {
			return bulletprime.RunConfig{
				Protocol: bulletprime.ProtocolBulletPrime,
				Nodes:    500,
				Network:  bulletprime.NetworkModelNetClean,
				Stream:   &bulletprime.StreamOptions{BitrateBps: 64 * 1024, Duration: 30, Drain: 45},
				Deadline: 120,
			}
		},
	},
	// The sharded engine's scalefill at 50,000 nodes, its 8 shards run
	// serially: flow churn and partition rebuilds in netem with no protocol
	// handlers at all, so core and proto changes must not move it.
	{
		name:   "scalefill-50k",
		inputs: 1,
		base: func() bulletprime.RunConfig {
			return bulletprime.RunConfig{
				Protocol:     bulletprime.ProtocolScalefill,
				Nodes:        50000,
				FileBytes:    1.5e6,
				Network:      bulletprime.NetworkClusteredCompact,
				Engine:       bulletprime.EngineSharded,
				Shards:       8,
				ShardWorkers: 1,
				Deadline:     12,
			}
		},
	},
}

// seeds derives a pass's input seeds from the benchmark's seed: the seed
// itself, then seed + k·2³², so seeds below 2³² never share an input.
func (w workload) seeds(seed int64) []int64 {
	out := make([]int64, w.inputs)
	for k := range out {
		out[k] = seed + int64(k)<<32
	}
	return out
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

//go:embed paper-degrade.json
var paperDegradeJSON []byte

// paperDegrade decodes the §4.1 bandwidth-change process (every 20 s, half
// the members lose half the bandwidth of half their inbound core links,
// down to 1/64) as a scenario, the same strict way LoadScenario reads one.
func paperDegrade() *bulletprime.Scenario {
	dec := json.NewDecoder(bytes.NewReader(paperDegradeJSON))
	dec.DisallowUnknownFields()
	var s bulletprime.Scenario
	if err := dec.Decode(&s); err != nil {
		panic(fmt.Sprintf("paper-degrade.json: %v", err)) // embedded at build time
	}
	return &s
}
