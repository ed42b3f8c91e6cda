// Command perfbench is the repository's benchmark. It runs one named
// workload through the public bulletprime façade, one experiment at a time
// from one goroutine, and reports what the experiments cost the host: CPU
// and wall time, set-up time, heap allocation and peak memory. Every run's
// simulated outcome is checked against a pinned reference, so a change
// that alters what is simulated shows as a failed run, not as a speed-up.
// With --trace 1 it instead splits the cost across the repository's layers
// from a CPU and an allocation profile. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-dynamic --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up to time setup_s.
const setupReps = 21

// endToEndNames are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEndNames = []string{"cpu_s", "setup_s", "alloc_mb", "max_rss_mb"}

// perLayerNames are the metrics of a traced run, as BENCHMARK.json lists
// them.
func perLayerNames() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+".self_s", l+".alloc_mb")
	}
	return append(names,
		"runtime.gc_cycles", "runtime.gc_pause_s", "lab.load_s", "traced.cpu_s", "traced.overhead_ratio",
		"proto.data_mb", "proto.control_mb", "core.duplicate_ratio", "core.trims", "core.promotes",
		"core.reconciles", "bittorrent.rechokes", "stream.rebuffers", "run.virtual_s")
}

// checkNames reports a run whose metrics are not exactly the listed ones.
func checkNames(metrics map[string]metric, traced bool) error {
	names := endToEndNames
	if traced {
		names = perLayerNames()
	}
	for _, n := range names {
		if _, ok := metrics[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(metrics) != len(names) {
		return fmt.Errorf("measured %d metrics, %d are listed", len(metrics), len(names))
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-dynamic, stream-500 or scalefill-50k")
	seed := fs.Int64("seed", 1, "seed every experiment of the workload is built from")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_build/perfbench", "directory for result files, raw profiles and scratch archives")
	pin := fs.String("pin", "", "run the workload once and record its outcomes for --seed into this reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <n ≥ 1> --trace <0|1>")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp := filepath.Join(*out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{w: w, seed: *seed, tmp: tmp}
	want, pinned := refs.pinned(w.name, *seed)
	if pinned {
		b.want = want
	}
	if *pin != "" {
		return pinOutcomes(b, *pin, stdout, stderr)
	}

	prov := stamp(w.name, *seed, pinned)
	measure := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	var detail map[string]any
	if *traceFlag == 1 {
		metrics, detail, err = perLayer(b, measure, *out)
	} else {
		metrics, detail, err = endToEnd(b, measure)
	}
	if err == nil {
		err = checkNames(metrics, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := writeResult(*out, *traceFlag, prov, res, detail); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, prov, res, detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd measures the workload as a user sees it, with tracing off:
// setupReps set-ups, then whole passes for the measuring time.
func endToEnd(b *bench, measure time.Duration) (map[string]metric, map[string]any, error) {
	var setupWalls, setupCPUs []float64
	for i := 0; i < setupReps; i++ {
		wall, cpu, err := b.setup()
		if err != nil {
			return nil, nil, err
		}
		setupWalls = append(setupWalls, wall.Seconds())
		setupCPUs = append(setupCPUs, cpu.Seconds())
	}
	var walls, cpus, allocs, rss []float64
	err := repeat(measure, func(i int) error {
		p, err := b.run(i, false)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		rss = append(rss, mean(p.rss))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	metrics := map[string]metric{
		"cpu_s":      {median(cpus), "s"},
		"setup_s":    {median(setupCPUs), "s"},
		"alloc_mb":   {median(allocs), "MB"},
		"max_rss_mb": {median(rss), "MB"},
	}
	detail := map[string]any{"cpu_s": cpus, "wall_s": walls, "alloc_mb": allocs, "max_rss_mb": rss,
		"setup_s": setupCPUs, "setup_wall_s": setupWalls, "median_wall_s": median(walls)}
	return metrics, detail, nil
}

// repeat calls pass for the measuring time d: at least once, and never
// starting a pass that, going by the previous one, would end after d.
func repeat(d time.Duration, pass func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= d; i++ {
		t := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// perLayer measures, after one warm-up pass, untraced passes for half the
// measuring time, then traced passes — CPU profile, subscribed observers,
// RunConfig.Trace — for the other half, and splits the traced passes' cost
// across the layers.
func perLayer(b *bench, measure time.Duration, out string) (map[string]metric, map[string]any, error) {
	if _, err := b.run(0, false); err != nil {
		return nil, nil, err
	}
	var plain []float64
	err := repeat(measure/2, func(i int) error {
		p, err := b.run(1+i, false)
		plain = append(plain, p.wall.Seconds())
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := writeProfile("allocs", base+".allocs-before.pprof"); err != nil {
		return nil, nil, err
	}
	cpuFile, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	defer cpuFile.Close()
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return nil, nil, err
	}
	var passes []pass
	var traced, loads []float64
	err = repeat(measure-measure/2, func(i int) error {
		p, err := b.run(1+len(plain)+i, true)
		passes = append(passes, p)
		traced = append(traced, p.wall.Seconds())
		loads = append(loads, p.load.Seconds())
		return err
	})
	if err != nil {
		pprof.StopCPUProfile()
		return nil, nil, err
	}
	pprof.StopCPUProfile()
	if err := cpuFile.Close(); err != nil {
		return nil, nil, err
	}
	if err := writeProfile("allocs", base+".allocs-after.pprof"); err != nil {
		return nil, nil, err
	}

	n := float64(len(passes))
	metrics := map[string]metric{
		"traced.overhead_ratio": {median(traced) / median(plain), "ratio"},
		"lab.load_s":            {median(loads), "s"},
	}
	cpu, cpuTotal, err := profileByLayer(base+".cpu.pprof", "", "cpu")
	if err != nil {
		return nil, nil, err
	}
	metrics["traced.cpu_s"] = metric{float64(cpuTotal) / 1e9 / n, "s"}
	alloc, _, err := profileByLayer(base+".allocs-after.pprof", base+".allocs-before.pprof", "alloc_space")
	if err != nil {
		return nil, nil, err
	}
	for _, l := range layers {
		metrics[l+".self_s"] = metric{float64(cpu[l]) / 1e9 / n, "s"}
		metrics[l+".alloc_mb"] = metric{float64(alloc[l]) / 1e6 / n, "MB"}
	}
	var gcs float64
	var pause time.Duration
	for _, p := range passes {
		gcs += float64(p.gcs)
		pause += p.gcPause
	}
	metrics["runtime.gc_cycles"] = metric{gcs / n, "count"}
	metrics["runtime.gc_pause_s"] = metric{pause.Seconds() / n, "s"}

	// The simulated work is the same in every pass; report the first and
	// flag any pass that differs.
	work := simulatedWork(passes[0])
	for i, p := range passes[1:] {
		if w := simulatedWork(p); w != work {
			b.problem("traced pass %d simulated different work: %+v, first pass %+v", i+1, w, work)
		}
	}
	for k, v := range work.metrics() {
		metrics[k] = v
	}
	detail := map[string]any{
		"untraced_wall_s": plain, "traced_wall_s": traced, "load_s": loads,
		"cpu_profile": base + ".cpu.pprof", "alloc_profiles": []string{base + ".allocs-before.pprof", base + ".allocs-after.pprof"},
	}
	return metrics, detail, nil
}

// work is the simulated work of one pass, summed over its runs: counts a
// host-speed change must leave exactly equal.
type work struct {
	dataBytes, controlBytes, duplicateBytes float64
	trims, promotes, reconciles, rechokes   int
	rebuffers                               int
	virtual                                 float64
}

func simulatedWork(p pass) work {
	var w work
	for _, s := range p.final {
		w.dataBytes += s.DataBytes
		w.controlBytes += s.ControlBytes
		w.duplicateBytes += s.DuplicateBytes
	}
	for _, o := range p.outcomes {
		w.virtual += o.Elapsed
	}
	w.trims = p.counts["trim"]
	w.promotes = p.counts["promote"]
	w.reconciles = p.counts["reconcile"]
	w.rechokes = p.counts["rechoke"]
	w.rebuffers = p.counts["rebuffer"]
	return w
}

func (w work) metrics() map[string]metric {
	dup := 0.0
	if w.dataBytes > 0 {
		dup = w.duplicateBytes / w.dataBytes
	}
	return map[string]metric{
		"proto.data_mb":        {w.dataBytes / 1e6, "MB"},
		"proto.control_mb":     {w.controlBytes / 1e6, "MB"},
		"core.duplicate_ratio": {dup, "ratio"},
		"core.trims":           {float64(w.trims), "count"},
		"core.promotes":        {float64(w.promotes), "count"},
		"core.reconciles":      {float64(w.reconciles), "count"},
		"bittorrent.rechokes":  {float64(w.rechokes), "count"},
		"stream.rebuffers":     {float64(w.rebuffers), "count"},
		"run.virtual_s":        {w.virtual, "s"},
	}
}

// profileByLayer splits a profile's samples of one type across the layers;
// with a base profile, the base's split is subtracted first (allocation
// profiles count from process start).
func profileByLayer(path, basePath, sampleType string) (map[string]int64, int64, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, 0, err
	}
	split, total, err := p.byLayer(sampleType)
	if err != nil || basePath == "" {
		return split, total, err
	}
	bp, err := readProfile(basePath)
	if err != nil {
		return nil, 0, err
	}
	baseSplit, baseTotal, err := bp.byLayer(sampleType)
	if err != nil {
		return nil, 0, err
	}
	for l, v := range baseSplit {
		split[l] -= v
	}
	return split, total - baseTotal, nil
}

func writeProfile(name, path string) error {
	runtime.GC() // the allocation profile is as of the last completed collection
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pinOutcomes runs the workload once and records its outcomes as the
// reference for the seed.
func pinOutcomes(b *bench, path string, stdout, stderr io.Writer) int {
	b.want = nil
	p, err := b.run(0, false)
	if err == nil && b.failed > 0 {
		err = fmt.Errorf("a run failed: %v", b.problems)
	}
	if err == nil {
		err = pinReference(path, b.w.name, b.seed, p.outcomes)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "pinned %d outcomes of %s seed %d into %s\n", len(p.outcomes), b.w.name, b.seed, path)
	return 0
}

// provenance identifies the machine and the code a result was measured on;
// results from different machines are never comparable.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Reference  string `json:"reference"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stamp(workload string, seed int64, pinned bool) provenance {
	p := provenance{
		Workload:   workload,
		Seed:       seed,
		Reference:  "first pass (seed not pinned)",
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if pinned {
		p.Reference = "pinned"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			p.Commit = rev + dirty
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// writeResult keeps the full result, stamped with its provenance, next to
// the raw profiles.
func writeResult(out string, traced int, prov provenance, res result, detail map[string]any) error {
	data, err := json.MarshalIndent(map[string]any{
		"provenance": prov, "result": res, "samples": detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", prov.Workload, prov.Seed, traced))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints the result for a reader, one metric a line, before the
// machine-readable last line.
func report(w io.Writer, prov provenance, res result, detail map[string]any) {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", p)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-24s %14.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if wall, ok := detail["median_wall_s"].(float64); ok {
		fmt.Fprintf(w, "%-24s %14.6f s (not bounded: see README.md)\n", "wall_s", wall)
	}
	fmt.Fprintf(w, "%-24s %14.6f share (%d of %d runs)\n", "failed_runs",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}
