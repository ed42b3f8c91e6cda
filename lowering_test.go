package bulletprime_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bulletprime"
	"bulletprime/internal/harness"
	"bulletprime/internal/scenario"
)

// TestDynamicBandwidthLowersToScenario pins what DynamicBandwidth means: on
// its own it runs exactly the §4.1 degrade scenario, and composed with a
// user scenario it runs that scenario with the degrade event appended after
// its events. Completion times, control overhead, and annotations must
// match; archive ids differ by design (the fingerprint hashes the flag and
// the scenario separately).
func TestDynamicBandwidthLowersToScenario(t *testing.T) {
	churn := scenario.New("churn",
		scenario.Churn(5, 0.2, scenario.Dist{Kind: "exp", Mean: 30}))
	churnDegrade := scenario.New("churn",
		slices.Concat(churn.Events, harness.SyntheticScenario(20).Events)...)
	oneShot := func(p bulletprime.Protocol) bulletprime.RunConfig {
		return bulletprime.RunConfig{Protocol: p, Nodes: 10, FileBytes: 8 << 20, Seed: 5, Deadline: 600}
	}
	cases := map[string]bulletprime.RunConfig{
		"bulletprime": oneShot(bulletprime.ProtocolBulletPrime),
		"bullet":      oneShot(bulletprime.ProtocolBullet),
		"bittorrent":  oneShot(bulletprime.ProtocolBitTorrent),
		"splitstream": oneShot(bulletprime.ProtocolSplitStream),
		"stream": {Nodes: 10, Seed: 5, Deadline: 600,
			Stream: &bulletprime.StreamOptions{BitrateBps: 64 * 1024, Duration: 30}},
	}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			for _, pair := range []struct{ user, lowered *bulletprime.Scenario }{
				{nil, harness.SyntheticScenario(20)},
				{churn, churnDegrade},
			} {
				flag, explicit := base, base
				flag.DynamicBandwidth, flag.Scenario = true, pair.user
				explicit.Scenario = pair.lowered
				a, b := runSession(t, flag), runSession(t, explicit)
				if !slices.ContainsFunc(a.Annotations, func(an bulletprime.Annotation) bool {
					return strings.HasPrefix(an.Text, "degrade round")
				}) {
					t.Fatalf("scenario %v: no degrade round fired during the run", pair.user != nil)
				}
				if !reflect.DeepEqual(a.CompletionTimes, b.CompletionTimes) {
					t.Fatalf("scenario %v: completions differ:\n%v\nvs\n%v", pair.user != nil,
						a.CompletionTimes, b.CompletionTimes)
				}
				if a.ControlOverhead != b.ControlOverhead {
					t.Fatalf("scenario %v: control overhead %v vs %v", pair.user != nil,
						a.ControlOverhead, b.ControlOverhead)
				}
				if !reflect.DeepEqual(a.Annotations, b.Annotations) {
					t.Fatalf("scenario %v: annotations differ:\n%v\nvs\n%v", pair.user != nil,
						a.Annotations, b.Annotations)
				}
			}
		})
	}
}

// runSession runs cfg as a sampled session, so annotations are recorded.
func runSession(t *testing.T, cfg bulletprime.RunConfig) *bulletprime.Result {
	t.Helper()
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
