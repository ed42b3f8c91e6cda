package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// outcome is the simulated result of one run that the benchmark pins: a
// change meant only to speed up the simulator must leave every field equal,
// bit for bit.
type outcome struct {
	Cell            string         `json:"cell"`
	Finished        bool           `json:"finished"`
	Elapsed         float64        `json:"elapsed"`
	Completions     int            `json:"completions"`
	Median          float64        `json:"median"`
	Worst           float64        `json:"worst"`
	ControlOverhead float64        `json:"control_overhead"`
	Stream          *streamOutcome `json:"stream,omitempty"`
}

type streamOutcome struct {
	Live      int     `json:"live"`
	LagP50    float64 `json:"lag_p50"`
	Rebuffers int     `json:"rebuffers"`
}

func outcomeOf(r cellRun) outcome {
	res := r.res
	o := outcome{
		Cell:            r.cell,
		Finished:        res.Finished,
		Elapsed:         res.Elapsed,
		Completions:     len(res.CompletionTimes),
		Median:          res.Median(),
		Worst:           res.Worst(),
		ControlOverhead: res.ControlOverhead,
	}
	if s := res.Stream; s != nil {
		o.Stream = &streamOutcome{Live: s.Live, LagP50: s.LagP50, Rebuffers: s.Rebuffers}
	}
	return o
}

// mismatches lists every field in which got differs from want.
func mismatches(got, want outcome) []string {
	var out []string
	add := func(field string, g, w any) {
		out = append(out, fmt.Sprintf("%s: %s = %v, reference %v", got.Cell, field, g, w))
	}
	if got.Cell != want.Cell {
		add("cell", got.Cell, want.Cell)
	}
	if got.Finished != want.Finished {
		add("finished", got.Finished, want.Finished)
	}
	if got.Elapsed != want.Elapsed {
		add("elapsed", got.Elapsed, want.Elapsed)
	}
	if got.Completions != want.Completions {
		add("completions", got.Completions, want.Completions)
	}
	if got.Median != want.Median {
		add("median", got.Median, want.Median)
	}
	if got.Worst != want.Worst {
		add("worst", got.Worst, want.Worst)
	}
	if got.ControlOverhead != want.ControlOverhead {
		add("control_overhead", got.ControlOverhead, want.ControlOverhead)
	}
	switch g, w := got.Stream, want.Stream; {
	case (g == nil) != (w == nil):
		add("stream", g, w)
	case g != nil && *g != *w:
		add("stream", *g, *w)
	}
	return out
}

// checkOutcomes compares one pass's runs with the reference, run by run.
// A run fails when any pinned field differs or when it did not finish; bad
// marks the failed runs and why lists every difference.
func checkOutcomes(got, want []outcome) (bad []bool, why []string) {
	bad = make([]bool, len(got))
	if len(got) != len(want) {
		for i := range bad {
			bad[i] = true
		}
		return bad, []string{fmt.Sprintf("%d runs, reference has %d", len(got), len(want))}
	}
	for i := range got {
		if m := mismatches(got[i], want[i]); len(m) > 0 {
			bad[i] = true
			why = append(why, m...)
		}
		if !got[i].Finished {
			bad[i] = true
			why = append(why, got[i].Cell+": did not finish by its deadline")
		}
	}
	return bad, why
}

// references holds the pinned outcomes, by workload and then by seed.
type references struct {
	// PrimarySeed is the seed a change is developed against; HeldOutSeed is
	// never used while writing one, and every claim must also hold on it.
	PrimarySeed int64                           `json:"primary_seed"`
	HeldOutSeed int64                           `json:"held_out_seed"`
	Workloads   map[string]map[string][]outcome `json:"workloads"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// pinned returns the reference outcomes for a workload and seed, if pinned.
func (r *references) pinned(workload string, seed int64) ([]outcome, bool) {
	o, ok := r.Workloads[workload][strconv.FormatInt(seed, 10)]
	return o, ok
}

// pinReference records the outcomes of one workload and seed into the
// reference file at path, keeping everything else the file holds.
func pinReference(path, workload string, seed int64, o []outcome) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r references
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if r.Workloads == nil {
		r.Workloads = map[string]map[string][]outcome{}
	}
	if r.Workloads[workload] == nil {
		r.Workloads[workload] = map[string][]outcome{}
	}
	r.Workloads[workload][strconv.FormatInt(seed, 10)] = o
	if data, err = json.MarshalIndent(r, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
