package harness

import (
	"testing"

	"bulletprime/internal/scenario"
)

// testbedSpec is the smallest loopback testbed run: 8 nodes, a 128 KB file,
// an accelerated clock so wall time stays test-sized.
func testbedSpec(kind ProtoKind, seed int64) SweepSpec {
	return SweepSpec{
		Label:    "testbed/" + kind.String(),
		Seed:     seed,
		TopoFn:   LosslessModelNetTopology(8),
		Kind:     kind,
		Workload: Workload{FileBytes: 128 * 1024, BlockSize: 16 * 1024},
		Deadline: 1800,
		Testbed:  &TestbedSpec{Rate: 50},
	}
}

// TestTestbedFullDissemination is the backend-swap acceptance test: two of
// the paper's protocols complete a full dissemination over loopback UDP
// sockets with zero changes inside their protocol packages — the same
// registered builders an emulated run uses.
func TestTestbedFullDissemination(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	for _, kind := range []ProtoKind{KindBulletPrime, KindBitTorrent} {
		t.Run(kind.String(), func(t *testing.T) {
			res := RunSpec(testbedSpec(kind, 1))
			if res.Err != nil {
				t.Fatalf("testbed run failed: %v", res.Err)
			}
			if !res.Finished {
				t.Fatalf("%s did not complete over the testbed: %d/7 receivers done by t=%v",
					kind, len(res.PerNode), res.EndedAt)
			}
			if len(res.PerNode) != 7 {
				t.Fatalf("completion times for %d receivers, want 7", len(res.PerNode))
			}
			if res.DataBytes < 7*128*1024 {
				t.Fatalf("DataBytes = %v, want >= %v (every receiver pulled the file)",
					res.DataBytes, 7*128*1024)
			}
		})
	}
}

// TestTestbedLossRecovery injects 5% uniform loss on every transmission
// attempt with a fixed seed: the reliable link's retry/timeout machinery
// must still carry the dissemination to 100% completion.
func TestTestbedLossRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	spec := testbedSpec(KindBulletPrime, 7)
	spec.Testbed.DropProb = 0.05
	spec.Testbed.DropSeed = 99
	spec.Testbed.RTO = 0.01 // 10 ms wall keeps retransmission delays test-sized
	res := RunSpec(spec)
	if res.Err != nil {
		t.Fatalf("testbed run failed: %v", res.Err)
	}
	if !res.Finished || len(res.PerNode) != 7 {
		t.Fatalf("5%% loss broke completion: finished=%v, %d/7 receivers by t=%v",
			res.Finished, len(res.PerNode), res.EndedAt)
	}
}

// TestTestbedSmoke is the CI loopback smoke: the smallest preset over
// testbed-udp under -short, asserting full completion and clean shutdown.
func TestTestbedSmoke(t *testing.T) {
	spec := testbedSpec(KindBulletPrime, 3)
	spec.Workload.FileBytes = 64 * 1024
	res := RunSpec(spec)
	if res.Err != nil {
		t.Fatalf("testbed smoke failed: %v", res.Err)
	}
	if !res.Finished || len(res.PerNode) != 7 {
		t.Fatalf("smoke run incomplete: finished=%v, %d/7 receivers by t=%v",
			res.Finished, len(res.PerNode), res.EndedAt)
	}
}

// TestTestbedRejectsEmulatorOnlyFeatures pins the fail-fast paths: specs
// combining the testbed with emulator-only machinery report Err instead of
// running half-configured.
func TestTestbedRejectsEmulatorOnlyFeatures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SweepSpec)
	}{
		{"sharded", func(s *SweepSpec) { s.Engine = EngineSharded }},
		{"scenario", func(s *SweepSpec) { s.Scenario = &scenario.Program{} }},
		{"dynamics", func(s *SweepSpec) { s.Dynamics = func(*Rig) {} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testbedSpec(KindBulletPrime, 1)
			tc.mutate(&spec)
			res := RunSpec(spec)
			if res.Err == nil {
				t.Fatalf("testbed+%s spec ran instead of failing", tc.name)
			}
			if res.Finished || len(res.PerNode) != 0 {
				t.Fatalf("failed spec reported results: %+v", res)
			}
		})
	}
}
