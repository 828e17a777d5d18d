package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// scale sizes the workloads. The grid shapes (which structures, programs
// and keys) are fixed; only per-pair fault counts and repetition counts
// scale, all by the one factor in name, so that a run fits the contract's
// time budget on the 2-core sandbox.
type scale struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median

	gridFaults  int // avgi-grid faults per pair (paper sample: 2000)
	studyFaults int // study-e2e faults per pair (issue: 192)
	serveFaults int // faults per /v1/assess request (issue: 200)
	serveSeeds  int // seeds per (structure, program) in the cold fill; 12*seeds keys must exceed the 64-entry LRU
	warmKeys    int // hot set of the warm phase, well under the LRU

	sweepCases int // golden cases per sweep; 0 is all 26 (only the smoke test trims the sweep)
	primFaults int // RF/sha faults behind the campaign.* and dist.* primitives
	replay     int // faults per anatomy-replay chunk
	primIters  int // repetitions of each micro-timed primitive
}

// fullScale is the issue's sizing divided by eight.
var fullScale = scale{
	name: "1/8", setupReps: 3,
	gridFaults: 250, studyFaults: 24, serveFaults: 25, serveSeeds: 10, warmKeys: 16,
	primFaults: 1024, replay: 256, primIters: 200,
}

// tinyScale keeps the go test smoke under ten seconds.
var tinyScale = scale{
	name: "tiny", setupReps: 1,
	gridFaults: 4, studyFaults: 2, serveFaults: 4, serveSeeds: 6, warmKeys: 4,
	sweepCases: 4, primFaults: 32, replay: 16, primIters: 3,
}

// env is what one workload run is given.
type env struct {
	ctx    context.Context // ends on SIGINT/SIGTERM; child processes die with it
	seed   int64
	budget time.Duration // measured region
	sc     scale
	rec    *recorder // nil on the untraced run
	tmp    string    // scratch directory, removed by the caller
	chk    checks
	layer  map[string]float64 // per-layer values (traced run only)
}

func (e *env) traced() bool { return e.rec != nil }

// set records a per-layer value; add accumulates one.
func (e *env) set(name string, v float64) {
	if e.layer != nil {
		e.layer[name] = v
	}
}

func (e *env) add(name string, v float64) { e.set(name, e.layer[name]+v) }

// checks counts operations attempted and output checks failed; the first
// few failures are kept for the report.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func (c *checks) attempt(n int) {
	c.mu.Lock()
	c.attempted += int64(n)
	c.mu.Unlock()
}

func (c *checks) fail(format string, a ...any) {
	c.mu.Lock()
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, a...))
	}
	c.mu.Unlock()
}

// outcome is what a workload hands back: raw samples, folded into the
// end-to-end metrics by endToEndValues.
type outcome struct {
	setup []time.Duration // one per set-up repetition
	walls []time.Duration // one per round of fixed work
	rates []float64       // ops per second, one per round
	lat   []time.Duration // one per operation
	rssMB float64         // peak RSS of a child that did the work; 0 means this process did
}

func endToEndValues(o *outcome) map[string]float64 {
	rss := o.rssMB
	if rss == 0 {
		rss = peakRSSMB(0)
	}
	return map[string]float64{
		"setup_s":     median(durationsIn(time.Second, o.setup)),
		"wall_s":      median(durationsIn(time.Second, o.walls)),
		"ops_per_s":   median(o.rates),
		"peak_rss_mb": rss,
	}
}

// setups runs build sc.setupReps times and keeps the last product, so that
// setup_s is a median instead of one cold measurement. drop releases a
// product that is not kept. Set-up is not traced.
func setups[T any](e *env, build func() (T, error), drop func(T)) (T, []time.Duration, error) {
	var kept T
	var times []time.Duration
	e.rec.enable(false)
	defer e.rec.enable(true)
	for i := 0; i < e.sc.setupReps; i++ {
		if i > 0 {
			drop(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, nil, err
		}
		times = append(times, time.Since(t0))
		kept = v
	}
	return kept, times, nil
}

// rounds repeats one fixed unit of work until the budget is spent, at
// least once. round returns the operations it completed and the wall time
// of its timed part. On the traced run every second round runs with the
// recorder off, and the ratio of the two medians is the tracing overhead.
func (e *env) rounds(o *outcome, round func(i int) (ops float64, wall time.Duration, err error)) error {
	deadline := time.Now().Add(e.budget)
	minRounds := 1
	if e.traced() {
		minRounds = 2
	}
	var on, off []float64
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		e.rec.enable(i%2 == 0)
		ops, d, err := round(i)
		if err != nil {
			return err
		}
		o.walls = append(o.walls, d)
		o.rates = append(o.rates, ops/seconds(d))
		if i%2 == 0 {
			on = append(on, seconds(d))
		} else {
			off = append(off, seconds(d))
		}
	}
	e.rec.enable(true)
	if e.traced() {
		e.set("bench.trace_overhead_ratio", ratio(median(on), median(off)))
		e.set("bench.traced_wall_s", median(on))
	}
	return nil
}
