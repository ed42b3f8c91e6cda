package main

// The farm's spec is the sweep's spec: the same flags, the same expansion,
// the same archive ids. These tests pin that equivalence end to end, the
// spec's network boundary (size bound, fuzzed decode), and that a spec the
// sweep rejects never reaches a listener.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bulletprime"
)

// archiveIDs lists an archive's run ids, sorted.
func archiveIDs(t *testing.T, dir string) []string {
	t.Helper()
	a, err := bulletprime.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(metas))
	for i, m := range metas {
		ids[i] = m.ID
	}
	sort.Strings(ids)
	return ids
}

// farmOnce runs a coordinator over specArgs with one worker started in
// workerDir, and returns the coordinator's stdout summary.
func farmOnce(t *testing.T, archive, workerDir string, specArgs []string) string {
	t.Helper()
	coord := bulletctlCmd(append([]string{"farm", "coordinate", "-archive", archive,
		"-addr", "127.0.0.1:0", "-wall", "120", "-linger", "1"}, specArgs...)...)
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var coordOut bytes.Buffer
	coord.Stdout = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	base := ""
	scan := bufio.NewScanner(coordErr)
	for scan.Scan() {
		if i := strings.Index(scan.Text(), "coordinating on "); i >= 0 {
			base = strings.TrimSpace(scan.Text()[i+len("coordinating on "):])
			break
		}
	}
	if base == "" {
		t.Fatal("coordinator never announced its address")
	}
	go io.Copy(io.Discard, coordErr)

	worker := bulletctlCmd("farm", "work", "-coordinator", base, "-archive", archive)
	worker.Dir = workerDir
	if out, err := worker.CombinedOutput(); err != nil {
		t.Fatalf("worker failed: %v\n%s", err, out)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, coordOut.String())
	}
	return coordOut.String()
}

// TestFarmMatchesSweep pins farm ≡ sweep: the same spec flags archive the
// same id set through either verb — with repetitions, the synthetic
// dynamics, and a scenario whose trace file the worker, started in another
// directory, never sees. An archive filled by sweep is, to the farm, done.
func TestFarmMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a coordinator and a worker process per case")
	}
	scenario, err := filepath.Abs("../../internal/scenario/testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	geometry := []string{"-nodes", "12", "-filemb", "0.5", "-seeds", "2", "-protocols", "bulletprime,bittorrent"}
	cases := map[string][]string{
		"plain":    nil,
		"reps":     {"-reps", "2"},
		"dynamic":  {"-dynamic"},
		"scenario": {"-scenario", scenario},
	}
	for name, extra := range cases {
		t.Run(name, func(t *testing.T) {
			specArgs := append(append([]string(nil), geometry...), extra...)
			swept, farmed := t.TempDir(), t.TempDir()
			var out, errb strings.Builder
			if code := dispatch(append([]string{"sweep", "-archive", swept}, specArgs...), &out, &errb); code != 0 {
				t.Fatalf("sweep exit %d: %s", code, errb.String())
			}
			want := archiveIDs(t, swept)
			summary := farmOnce(t, farmed, t.TempDir(), specArgs)
			if n := len(want); !strings.Contains(summary, fmt.Sprintf("cells %d: %d done, 0 pending, 0 leased, 0 failed", n, n)) {
				t.Fatalf("farm of %d cells did not complete cleanly:\n%s", n, summary)
			}
			if got := archiveIDs(t, farmed); !reflect.DeepEqual(got, want) {
				t.Fatalf("farm archived %v, sweep archived %v", got, want)
			}

			out.Reset()
			errb.Reset()
			if code := dispatch(append([]string{"farm", "status", "-archive", swept}, specArgs...), &out, &errb); code != 0 {
				t.Fatalf("offline status exit %d: %s", code, errb.String())
			}
			if n := len(want); !strings.Contains(out.String(), fmt.Sprintf("cells %d: %d done", n, n)) {
				t.Fatalf("a swept archive is not done to the farm:\n%s", out.String())
			}
		})
	}
}

// TestSweepArchiveIDsPinned pins the ids a CLI sweep archives, as
// recorded before sweep and farm shared one spec: unobserved cells with no
// series. With TestFarmMatchesSweep it keeps farm ids byte-stable too, so
// an archive filled by an older sweep or farm resumes with nothing to run.
func TestSweepArchiveIDsPinned(t *testing.T) {
	for extra, want := range map[string][]string{
		"":         {"c06095318c2ce6a0", "f6f15cfc00772bd2"},
		"-dynamic": {"be3a21e30d654fdd", "f6288fd099f0273b"},
	} {
		dir := t.TempDir()
		args := []string{"sweep", "-archive", dir, "-nodes", "12", "-filemb", "0.5", "-seeds", "1",
			"-protocols", "bulletprime,bittorrent"}
		if extra != "" {
			args = append(args, extra)
		}
		var out, errb strings.Builder
		if code := dispatch(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb.String())
		}
		if got := archiveIDs(t, dir); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %q archived %v, want %v", extra, got, want)
		}
	}
}

// TestFarmCoordinateRejectsLikeSweep pins that a spec the sweep rejects
// fails the coordinator with the sweep's own message, before it listens
// or touches the archive.
func TestFarmCoordinateRejectsLikeSweep(t *testing.T) {
	spec := []string{"-nodes", "8", "-filemb", "0.1", "-seeds", "1", "-engine", "sharded", "-dynamic"}
	var out, sweepErr strings.Builder
	if code := dispatch(append([]string{"sweep"}, spec...), &out, &sweepErr); code != 1 {
		t.Fatalf("sweep exit %d, want 1: %s", code, sweepErr.String())
	}
	archive := filepath.Join(t.TempDir(), "bench")
	for _, verb := range []string{"coordinate", "resume"} {
		var coordErr strings.Builder
		code := dispatch(append([]string{"farm", verb, "-archive", archive, "-addr", "127.0.0.1:0", "-wall", "1"}, spec...), &out, &coordErr)
		if code != 1 || coordErr.String() != sweepErr.String() {
			t.Fatalf("farm %s exit %d, stderr %q; want 1 and the sweep's %q", verb, code, coordErr.String(), sweepErr.String())
		}
	}
	if _, err := os.Stat(archive); !os.IsNotExist(err) {
		t.Fatalf("a rejected farm created its archive (stat: %v)", err)
	}
}

// TestFarmCoordinateRefusesOversizedSpec pins the spec's size bound: a
// scenario whose inline trace makes the spec larger than a worker reads
// fails the coordinator up front, not every worker later on truncated
// JSON.
func TestFarmCoordinateRefusesOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	// Values in shortest round-trip form keep their size through the
	// coordinator's re-encoding of the spec.
	var times, values []string
	for size := 0; size < 2<<20; {
		t := strconv.FormatFloat(float64(len(times))*1.0000001, 'g', -1, 64)
		v := strconv.FormatFloat(1500.123456789+float64(len(times)), 'g', -1, 64)
		times, values = append(times, t), append(values, v)
		size += len(t) + len(v) + 2
	}
	doc := fmt.Sprintf(`{"name": "huge", "events": [{"kind": "trace", "at": 0,
		"links": {"nodes": [1], "dir": "in"},
		"trace": {"times": [%s], "values": [%s]}}]}`,
		strings.Join(times, ","), strings.Join(values, ","))
	path := filepath.Join(dir, "huge.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	// -wall bounds the farm should the refusal ever regress.
	code := dispatch([]string{"farm", "coordinate", "-archive", filepath.Join(dir, "bench"), "-addr", "127.0.0.1:0", "-wall", "1",
		"-nodes", "8", "-filemb", "0.1", "-seeds", "1", "-scenario", path}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "workers read at most") || strings.Contains(errb.String(), "coordinating on") {
		t.Fatalf("exit %d, stderr %q; want 1 refusing the spec before listening", code, errb.String())
	}
}

// TestFarmCellsRefusesUnknownFields pins the strict decode: a worker
// never runs a spec it only partly understands.
func TestFarmCellsRefusesUnknownFields(t *testing.T) {
	if _, err := farmCells([]byte(`{"Base":{"Nodes":8,"FileBytes":1e6}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := farmCells([]byte(`{"Base":{"Nodes":8,"FileBytes":1e6,"Warp":9}}`)); err == nil {
		t.Fatal("accepted a spec with an unknown field")
	}
}

// tripwire is a protocol whose sessions must never be built: a farm spec
// naming it may be decoded and validated, never run.
const tripwire bulletprime.Protocol = "farm-spec-tripwire"

func init() {
	bulletprime.RegisterProtocol(tripwire, func(bulletprime.BuildContext) bulletprime.System {
		panic("decoding a farm spec started a run")
	})
}

// FuzzFarmSpec drives arbitrary /spec bytes through the worker's decode,
// expansion and per-cell validation: no input may panic or start a run,
// and every accepted spec yields cells that a worker can index.
func FuzzFarmSpec(f *testing.F) {
	sc, err := bulletprime.LoadScenario("../../internal/scenario/testdata/mixed.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []bulletprime.SweepConfig{
		{Base: bulletprime.RunConfig{Nodes: 12, FileBytes: 1e6, SampleEvery: -1}, Seeds: []int64{1, 2}, Reps: 2},
		{Base: bulletprime.RunConfig{Nodes: 12, FileBytes: 1e6, DynamicBandwidth: true, Scenario: sc},
			Protocols: []bulletprime.Protocol{tripwire, "bittorrent"}},
		{Base: bulletprime.RunConfig{Nodes: 50, FileBytes: 1e6, Engine: bulletprime.EngineSharded, Shards: 2},
			Protocols: []bulletprime.Protocol{"scalefill"}, Networks: []bulletprime.NetworkPreset{"clustered"}},
		{Base: bulletprime.RunConfig{Nodes: 8, Stream: &bulletprime.StreamOptions{BitrateBps: 1e5, Duration: 5}}},
	} {
		spec, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec)
	}
	f.Add([]byte(`{"Base":{"Nodes":30,"FileBytes":1},"Networks":["clustered"]}`))
	f.Add([]byte(`{"Base":{"Nodes":8,"FileBytes":1},"Reps":1e9}`))
	f.Add([]byte(`{"Base":{"Nodes":8,"FileBytes":1,"Scenario":{"name":"x","events":[{"kind":"outage"}]}}}`))
	f.Add([]byte(`{"Base":{"Nodes":8},"Bogus":1}`))
	f.Fuzz(func(t *testing.T, spec []byte) {
		cells, err := farmCells(spec)
		if err != nil {
			return
		}
		for i, c := range cells {
			if c.Index != i || c.Config.Nodes < 8 {
				t.Fatalf("cell %d of an accepted spec is %+v", i, c)
			}
		}
	})
}
