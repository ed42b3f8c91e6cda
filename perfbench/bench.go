package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bulletprime"
)

// setupDeadline is the virtual-time bound of a set-up run: the run ends
// right after the systems start, once the events due at time zero have run,
// so what is timed is topology, rig and system construction.
const setupDeadline = 1e-6

// bench runs one workload for one seed and checks every run it makes.
type bench struct {
	w    workload
	seed int64
	tmp  string // scratch directory for the archives of archived workloads

	// want is the reference every pass is compared against: the pinned
	// outcomes, or for an unpinned seed the first pass's own outcomes.
	want []outcome

	attempted int
	failed    int
	problems  []string
}

// pass is one execution of all of a workload's runs.
type pass struct {
	wall     time.Duration // the runs plus the archive read-back
	cpu      time.Duration // process CPU time (user + system) during wall
	alloc    uint64        // heap bytes allocated during wall
	rss      []float64     // peak resident memory of each run, MB
	gcs      uint32        // garbage collections completed during wall
	gcPause  time.Duration // their total stop-the-world pause
	load     time.Duration // archive read-back alone
	outcomes []outcome
	// Traced passes only: the final sample of each run's series and the
	// trace's per-kind span counts, summed over the runs.
	final  []bulletprime.Sample
	counts map[string]int
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setup runs the workload's runs with nothing simulated and returns the
// host wall and CPU time taken.
func (b *bench) setup() (wall, cpu time.Duration, err error) {
	cfg := b.w.base()
	cfg.Deadline = setupDeadline
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	runs, err := execute(b.w, cfg, b.w.seeds(b.seed), false)
	wall, cpu = time.Since(start), cpuTime()-cpu0
	if err != nil {
		return 0, 0, err
	}
	for _, r := range runs {
		b.attempted++
		if r.err != nil || r.res.Cancelled {
			b.failed++
			b.problem("set-up run %s: err %v, cancelled %v", r.cell, r.err, r.res.Cancelled)
		}
	}
	return wall, cpu, nil
}

// run executes the workload's runs once, traced or not, and checks them.
func (b *bench) run(n int, traced bool) (pass, error) {
	cfg := b.w.base()
	var archive *bulletprime.Archive
	if b.w.archived {
		dir := filepath.Join(b.tmp, fmt.Sprintf("archive-%d", n))
		if err := os.RemoveAll(dir); err != nil {
			return pass{}, err
		}
		defer os.RemoveAll(dir)
		var err error
		if archive, err = bulletprime.OpenArchive(dir); err != nil {
			return pass{}, err
		}
		cfg.Archive = archive
	}
	if traced {
		cfg.Trace = &bulletprime.TraceOptions{}
	}

	var p pass
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	runs, err := execute(b.w, cfg, b.w.seeds(b.seed), traced)
	if err != nil {
		return pass{}, err
	}
	var loaded map[string]int
	if archive != nil {
		t := time.Now()
		loaded, err = readBack(archive)
		p.load = time.Since(t)
		if err != nil {
			return pass{}, err
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	for _, r := range runs {
		p.outcomes = append(p.outcomes, outcomeOf(r))
		p.rss = append(p.rss, r.rss)
	}
	if b.want == nil {
		b.want = p.outcomes
	}
	bad, why := checkOutcomes(p.outcomes, b.want)
	b.problems = append(b.problems, why...)
	wrongCount := archive != nil && len(loaded) != len(runs)
	if wrongCount {
		b.problem("archive holds %d records for %d cells", len(loaded), len(runs))
	}
	for i, r := range runs {
		if r.err != nil || r.res.Cancelled {
			bad[i] = true
			b.problem("run %s: err %v, cancelled %v", r.cell, r.err, r.res.Cancelled)
		}
		if archive != nil && loaded[r.runID] != len(r.res.CompletionTimes) {
			bad[i] = true
			b.problem("run %s: archive id %q holds %d completions, the run had %d",
				r.cell, r.runID, loaded[r.runID], len(r.res.CompletionTimes))
		}
		if wrongCount {
			bad[i] = true
		}
	}
	b.attempted += len(runs)
	for _, f := range bad {
		if f {
			b.failed++
		}
	}

	if traced {
		p.counts = map[string]int{}
		for _, r := range runs {
			if s := r.res.Series; len(s) > 0 {
				p.final = append(p.final, s[len(s)-1])
			}
			if tr := r.res.Trace; tr != nil {
				for k, c := range tr.Counts {
					p.counts[k] += c
				}
			}
		}
	}
	return p, nil
}

// cellRun is one finished run of a workload.
type cellRun struct {
	cell  string // protocol/network/seed
	res   *bulletprime.Result
	runID string // archive id, when archived
	err   error
	rss   float64 // peak resident memory of the process during the run, MB
}

// execute runs the workload's experiments for cfg once, for every input
// seed: a sweep of cfg over w.protocols and the seeds, or one run per seed.
// Sweeps go through SweepStream, whose per-cell callback restarts the
// peak-RSS count before every run; untraced, they keep Sweep's setting of
// no sampling. A traced execution also subscribes an observer to every run,
// drained on its own goroutine.
func execute(w workload, cfg bulletprime.RunConfig, seeds []int64, traced bool) ([]cellRun, error) {
	// peaks[i] is the peak RSS between the i-th and (i+1)-th mark: mark
	// runs before every run and once after the last.
	var peaks []float64
	mark := func() {
		peaks = append(peaks, peakRSS())
		resetPeakRSS()
	}
	var drained sync.WaitGroup
	defer drained.Wait()
	var mu sync.Mutex
	var subErr error
	observe := func(_ bulletprime.SweepCell, e *bulletprime.Experiment) {
		mark()
		if !traced {
			return
		}
		o, err := e.Subscribe(bulletprime.ObserverConfig{Every: 1})
		if err != nil {
			mu.Lock()
			subErr = err
			mu.Unlock()
			return
		}
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range o.Samples() {
			}
		}()
	}

	if w.protocols == nil {
		var out []cellRun
		for _, seed := range seeds {
			cfg.Seed = seed
			r := cellRun{cell: fmt.Sprintf("%s/%s/seed%d", cfg.Protocol, cfg.Network, seed)}
			var err error
			if !traced {
				mark()
				r.res, err = bulletprime.Run(cfg)
			} else {
				var e *bulletprime.Experiment
				if e, err = bulletprime.New(cfg); err != nil {
					return nil, err
				}
				if observe(bulletprime.SweepCell{}, e); subErr != nil {
					return nil, subErr
				}
				r.res, err = e.Run(context.Background())
				r.runID = e.RunID()
			}
			if r.res == nil {
				return nil, err
			}
			r.err = err // with a result, the error is the archive's
			out = append(out, r)
		}
		mark()
		for i := range out {
			out[i].rss = peaks[i+1]
		}
		return out, nil
	}

	if !traced {
		cfg.SampleEvery = -1
	}
	sweep := bulletprime.SweepConfig{Base: cfg, Protocols: w.protocols, Seeds: seeds}
	ch, err := bulletprime.SweepStream(context.Background(), sweep, observe)
	if err != nil {
		return nil, err
	}
	var runs []bulletprime.SweepRun
	for r := range ch {
		runs = append(runs, r)
	}
	mark()
	if subErr != nil {
		return nil, subErr
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Index < runs[j].Index })
	out := make([]cellRun, len(runs))
	for i, r := range runs {
		out[i] = cellRun{cell: fmt.Sprintf("%s/%s/seed%d", r.Protocol, r.Network, r.Seed),
			res: r.Result, runID: r.RunID, err: r.Err, rss: peaks[i+1]}
	}
	return out, nil
}

// readBack loads every archived record and returns its completion count by
// run id.
func readBack(a *bulletprime.Archive) (map[string]int, error) {
	metas, err := a.List()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(metas))
	for _, m := range metas {
		run, err := a.Load(m.ID)
		if err != nil {
			return nil, err
		}
		out[m.ID] = len(run.CompletionTimes)
	}
	return out, nil
}

// cpuTime is the process's CPU time so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// memory (VmHWM). Kernels without /proc/self/clear_refs keep counting from
// process start, which peakRSS then reports.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident memory in MB since the last
// resetPeakRSS: VmHWM, or getrusage's lifetime maxrss where /proc is absent.
func peakRSS() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
