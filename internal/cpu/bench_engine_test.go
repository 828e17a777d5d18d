package cpu

import (
	"runtime"
	"testing"
	"time"

	"avgi/internal/prog"
)

// BenchmarkEngineOverheadGuard measures the cost of driving the machine
// through the tick engine (Run registers the machine on a fresh
// engine.Engine) against the pre-refactor shape — a direct Step loop with
// the same stop conditions — in the same process, and fails the benchmark
// if the engine path is more than 5% slower. Comparing the two paths
// in-process makes the guard portable: it holds on any host regardless of
// absolute speed (the harness's standing number is engine.run_cycle_ns,
// bench/README.md).
//
//	go test -run='^$' -bench=EngineOverheadGuard ./internal/cpu/
func BenchmarkEngineOverheadGuard(b *testing.B) {
	w, err := prog.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ConfigA72()
	p := w.Build(cfg.Variant)

	// The guard compares the fastest observed trial of each path rather
	// than totals: on a shared host a single descheduled trial can inflate
	// one path's total by 10%+, while the per-path minimum converges on the
	// undisturbed cost. Trials alternate which path runs first (heap layout
	// and frequency state differ between the first and second run of a
	// pair), GC runs before every timed section so collection triggered by
	// one run's allocations is not billed to the next, and at least
	// minTrials pairs run regardless of b.N.
	const maxCycles = 50_000_000
	const minTrials = 8
	trials := b.N
	if trials < minTrials {
		trials = minTrials
	}

	// The old driving shape: the raw tick loop, no engine.
	stepRun := func() (time.Duration, uint64) {
		m := New(cfg, p)
		runtime.GC()
		t0 := time.Now()
		for m.Status() == StatusRunning && m.Cycle() < maxCycles {
			m.Step()
		}
		return time.Since(t0), m.Cycle()
	}
	// The shipped path: Run drives a fresh engine.
	engineRun := func() (time.Duration, uint64) {
		m := New(cfg, p)
		runtime.GC()
		t0 := time.Now()
		res := m.Run(RunOptions{MaxCycles: maxCycles})
		return time.Since(t0), res.Cycles
	}

	stepBest, engineBest := time.Duration(1<<62), time.Duration(1<<62)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < trials; i++ {
		var sd, ed time.Duration
		var sc, ec uint64
		if i%2 == 0 {
			sd, sc = stepRun()
			ed, ec = engineRun()
		} else {
			ed, ec = engineRun()
			sd, sc = stepRun()
		}
		if sd < stepBest {
			stepBest = sd
		}
		if ed < engineBest {
			engineBest = ed
		}
		cycles = ec
		if sc != ec {
			b.Fatalf("paths diverged: step %d cycles vs engine %d", sc, ec)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/engineBest.Seconds(), "engine-cycles/s")
	b.ReportMetric(float64(cycles)/stepBest.Seconds(), "step-cycles/s")
	overhead := engineBest.Seconds()/stepBest.Seconds() - 1
	b.ReportMetric(overhead*100, "overhead-%")
	if overhead > 0.05 {
		b.Errorf("engine-driven run is %.1f%% slower than the direct Step loop (budget 5%%)", overhead*100)
	}
}
