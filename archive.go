package bulletprime

import (
	"encoding/json"
	"fmt"

	"bulletprime/internal/lab"
)

// Archive is a persistent, content-addressed experiment archive: a
// directory where completed runs are stored as manifest + JSONL records
// keyed by a deterministic hash of (normalized config, scenario digest,
// seed, code version), so identical reruns dedupe and changed configs
// never collide. Set RunConfig.Archive to record every completed run and
// sweep cell automatically, or call Experiment.Record explicitly; query
// and diff the results with Archive.Select, CompareArchived, and
// bulletctl's ls/show/compare/report/gate subcommands. See DESIGN.md §7.
type Archive = lab.Archive

// ArchivedRun is one run loaded back from an Archive: manifest metadata
// plus the completion times, time-series samples, and annotations.
type ArchivedRun = lab.Run

// ArchiveFilter selects archived runs by id prefix, protocol, network,
// seed set, scenario, or code version; the zero value matches everything.
type ArchiveFilter = lab.Filter

// Comparison is an A/B diff of two archived run sets: pooled per-quantile
// deltas, seed-paired medians, and a paper-style markdown Report.
type Comparison = lab.Comparison

// OpenArchive creates (if needed) and opens an experiment archive rooted
// at dir.
func OpenArchive(dir string) (*Archive, error) { return lab.Open(dir) }

// CompareArchived diffs two archived run sets — protocol vs protocol,
// commit vs commit — under the given labels.
func CompareArchived(labelA string, a []*ArchivedRun, labelB string, b []*ArchivedRun) *Comparison {
	return lab.Compare(labelA, a, labelB, b)
}

// ArchiveReport renders a run set as a markdown report: one pooled
// quantile-summary row per protocol/network/scenario group plus their
// download-time CDF plots.
func ArchiveReport(runs []*ArchivedRun) string { return lab.Report(runs) }

// configFingerprint is the canonical form of a normalized RunConfig that
// the archive hashes into a run's identity. Execution-only knobs
// (Parallel, the Archive pointer itself) are excluded: they cannot change
// a run's results. SampleEvery holds the run's *effective* recorded
// series cadence — -1 when the run persisted no time-series (the one-shot
// Run/Sweep wrappers, or a disabled series), the possibly observer-refined
// cadence otherwise — so two records whose payloads differ never share an
// id, and identical reruns through the same path always dedupe. Field
// order is fixed — changing it would re-key every archived run.
type configFingerprint struct {
	Protocol          Protocol        `json:"protocol"`
	Nodes             int             `json:"nodes"`
	FileBytes         float64         `json:"file_bytes"`
	BlockSize         float64         `json:"block_size"`
	Network           NetworkPreset   `json:"network"`
	DynamicBandwidth  bool            `json:"dynamic_bandwidth,omitempty"`
	Scenario          string          `json:"scenario,omitempty"` // digest
	ScenarioName      string          `json:"scenario_name,omitempty"`
	Seed              int64           `json:"seed"`
	Deadline          float64         `json:"deadline"`
	SampleEvery       float64         `json:"sample_every"`
	Strategy          RequestStrategy `json:"strategy"`
	StaticPeers       int             `json:"static_peers,omitempty"`
	StaticOutstanding int             `json:"static_outstanding,omitempty"`
	Encoded           bool            `json:"encoded,omitempty"`
	// Engine and Shards shape results (per-shard RNG streams), so they are
	// part of the identity; ShardWorkers is an execution knob and is not.
	// omitempty keeps every pre-sharding sequential record's id stable.
	Engine EngineMode `json:"engine,omitempty"`
	Shards int        `json:"shards,omitempty"`
	// Testbed captures the result-shaping knobs of a real-socket run; nil
	// for emulated runs, keeping every pre-testbed record's id stable.
	// Address knobs (ListenHost, Peers) are execution details and excluded.
	Testbed *testbedFingerprint `json:"testbed,omitempty"`
	// Stream captures a streaming run's normalized pacing knobs; nil for
	// one-shot runs, keeping every pre-streaming record's id stable — and
	// making a streamed run's id always differ from the one-shot run of
	// the same derived FileBytes.
	Stream *streamFingerprint `json:"stream,omitempty"`
}

// testbedFingerprint is the identity-bearing slice of TestbedOptions.
type testbedFingerprint struct {
	Rate       float64 `json:"rate,omitempty"`
	RTO        float64 `json:"rto,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
	DropProb   float64 `json:"drop_prob,omitempty"`
	DropSeed   int64   `json:"drop_seed,omitempty"`
}

// streamFingerprint is the identity-bearing slice of StreamOptions
// (post-normalization, so defaults hash the same as their explicit values).
type streamFingerprint struct {
	BitrateBps   float64 `json:"bitrate_bps,omitempty"`
	Duration     float64 `json:"duration,omitempty"`
	PlayoutDepth float64 `json:"playout_depth,omitempty"`
	Warmup       float64 `json:"warmup,omitempty"`
	Drain        float64 `json:"drain,omitempty"`
}

// fingerprint renders a normalized config's canonical JSON plus the
// scenario digest and name; seriesEvery is the effective recorded series
// cadence (see configFingerprint.SampleEvery).
func fingerprint(cfg RunConfig, seriesEvery float64) (configJSON []byte, scenarioDigest, scenarioName string, err error) {
	if cfg.Scenario != nil {
		blob, err := json.Marshal(cfg.Scenario)
		if err != nil {
			return nil, "", "", fmt.Errorf("bulletprime: hashing scenario: %w", err)
		}
		scenarioDigest = lab.Digest(blob)
		scenarioName = cfg.Scenario.Name
	}
	fp := configFingerprint{
		Protocol:          cfg.Protocol,
		Nodes:             cfg.Nodes,
		FileBytes:         cfg.FileBytes,
		BlockSize:         cfg.BlockSize,
		Network:           cfg.Network,
		DynamicBandwidth:  cfg.DynamicBandwidth,
		Scenario:          scenarioDigest,
		ScenarioName:      scenarioName,
		Seed:              cfg.Seed,
		Deadline:          cfg.Deadline,
		SampleEvery:       seriesEvery,
		Strategy:          cfg.Strategy,
		StaticPeers:       cfg.StaticPeers,
		StaticOutstanding: cfg.StaticOutstanding,
		Encoded:           cfg.Encoded,
		Engine:            cfg.Engine,
		Shards:            cfg.Shards,
	}
	if cfg.Network == NetworkTestbedUDP && cfg.Testbed != nil {
		fp.Testbed = &testbedFingerprint{
			Rate:       cfg.Testbed.Rate,
			RTO:        cfg.Testbed.RTO,
			MaxRetries: cfg.Testbed.MaxRetries,
			DropProb:   cfg.Testbed.DropProb,
			DropSeed:   cfg.Testbed.DropSeed,
		}
	}
	if cfg.Stream != nil {
		fp.Stream = &streamFingerprint{
			BitrateBps:   cfg.Stream.BitrateBps,
			Duration:     cfg.Stream.Duration,
			PlayoutDepth: cfg.Stream.PlayoutDepth,
			// A disabled warmup (canonically -1) hashes as 0, as it always has.
			Warmup: max(cfg.Stream.Warmup, 0),
			Drain:  cfg.Stream.Drain,
		}
	}
	configJSON, err = json.Marshal(fp)
	if err != nil {
		return nil, "", "", fmt.Errorf("bulletprime: hashing config: %w", err)
	}
	return configJSON, scenarioDigest, scenarioName, nil
}

// ArchiveKey returns the key inputs an unobserved session of cfg records
// under: the canonical normalized-config JSON and the scenario digest
// ("" without a scenario). With the seed (also in the config) and the
// archive's code version they make the run's id. Farms resume by matching
// archived records against it. It keys the normalized series cadence —
// 1 when SampleEvery is 0 — because that is what New(cfg).Run records; a
// Sweep cell records no series whatever its SampleEvery, so its key is
// ArchiveKey of its config with SampleEvery -1.
func ArchiveKey(cfg RunConfig) (config []byte, scenarioDigest string, err error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, "", err
	}
	// An unobserved session records its series at the normalized cadence,
	// or none (-1).
	config, scenarioDigest, _, err = fingerprint(norm, norm.SampleEvery)
	return config, scenarioDigest, err
}

// recordRun archives one completed run under its content address.
func recordRun(a *Archive, cfg RunConfig, res *Result, seriesEvery float64) (string, error) {
	configJSON, digest, scenarioName, err := fingerprint(cfg, seriesEvery)
	if err != nil {
		return "", err
	}
	run := &lab.Run{
		Meta: lab.Meta{
			Config:          configJSON,
			Scenario:        digest,
			Seed:            cfg.Seed,
			Protocol:        string(cfg.Protocol),
			Network:         string(cfg.Network),
			Nodes:           cfg.Nodes,
			FileBytes:       cfg.FileBytes,
			ScenarioName:    scenarioName,
			Finished:        res.Finished,
			Elapsed:         res.Elapsed,
			ControlOverhead: res.ControlOverhead,
		},
		CompletionTimes: res.CompletionTimes,
	}
	if len(res.Series) > 0 {
		run.Series = make([]lab.Sample, len(res.Series))
		for i, s := range res.Series {
			run.Series[i] = lab.Sample{
				Time:             s.Time,
				Completed:        s.Completed,
				Receivers:        s.Receivers,
				GoodputBps:       s.GoodputBps,
				ControlBytes:     s.ControlBytes,
				DataBytes:        s.DataBytes,
				DuplicateBlocks:  s.DuplicateBlocks,
				DuplicateBytes:   s.DuplicateBytes,
				UsefulBytes:      s.UsefulBytes,
				StreamLagP50:     s.StreamLagP50,
				StreamLagMax:     s.StreamLagMax,
				Rebuffering:      s.Rebuffering,
				RebufferEvents:   s.RebufferEvents,
				StreamGoodputBps: s.StreamGoodputBps,

				TestbedRTTp50:        s.TestbedRTTp50,
				TestbedRTTMax:        s.TestbedRTTMax,
				TestbedUnackedBytes:  s.TestbedUnackedBytes,
				TestbedRetransmits:   s.TestbedRetransmits,
				TestbedInjectedDrops: s.TestbedInjectedDrops,
			}
		}
	}
	if len(res.Annotations) > 0 {
		run.Annotations = make([]lab.Annotation, len(res.Annotations))
		for i, an := range res.Annotations {
			run.Annotations[i] = lab.Annotation{At: an.At, Text: an.Text}
		}
	}
	id, _, err := a.Put(run)
	return id, err
}

// Record archives the session's completed run into a and returns the run
// id. It is an error to Record before the run ends or to archive a
// cancelled (partial) run; re-recording an identical run dedupes to the
// same id. Sessions whose RunConfig.Archive is set record automatically.
func (e *Experiment) Record(a *Archive) (string, error) {
	if a == nil {
		return "", fmt.Errorf("bulletprime: Record into a nil archive")
	}
	select {
	case <-e.done:
	default:
		return "", fmt.Errorf("bulletprime: Record before the run completed")
	}
	if e.res.Cancelled {
		return "", fmt.Errorf("bulletprime: refusing to archive a cancelled (partial) run")
	}
	return recordRun(a, e.cfg, e.res, e.seriesEvery)
}

// RunID returns the archive id the session's automatic record landed
// under: empty until the run ends, and empty for runs without
// RunConfig.Archive or cancelled runs (which are never archived).
func (e *Experiment) RunID() string {
	select {
	case <-e.done:
		return e.runID
	default:
		return ""
	}
}
