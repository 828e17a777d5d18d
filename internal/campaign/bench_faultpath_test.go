package campaign

import (
	"testing"

	"avgi/internal/cpu"
)

// The benchmarks below are hand-run profiling entry points for the
// standard windowed campaign shape: a 256-fault register-file list in the
// paper's AVGI mode (ERT 2000), 4 workers — short faulty windows, where
// per-fault fork overhead dominates. The numbers that judge a change come
// from the harness (bench/README.md), not from here.
//
//	go test -run=^$ -bench='CampaignCursor|GoldenRun' ./internal/campaign/

// BenchmarkCampaignCursor runs the standard windowed RF campaign and
// reports end-to-end throughput in faults per second.
func BenchmarkCampaignCursor(b *testing.B) {
	r := sharedBenchRunner(b)
	const perIter = 256
	faults := r.FaultList("RF", perIter, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(faults, ModeAVGI, 2000, 4)
	}
	b.StopTimer()
	b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "faults/s")
}

// BenchmarkCampaignCursorEarlyExit is the cursor campaign with EarlyExit on:
// the golden site timeline settles the faults that are dead, erased unread
// or untouched without simulating them, and forks the rest at their first
// use. The gap to BenchmarkCampaignCursor is the early-exit payoff on the
// standard RF shape.
func BenchmarkCampaignCursorEarlyExit(b *testing.B) {
	r := sharedBenchRunner(b)
	prev := r.EarlyExit
	r.EarlyExit = true
	defer func() { r.EarlyExit = prev }()
	BenchmarkCampaignCursor(b)
}

// BenchmarkGoldenRun measures bare-core simulation speed in cycles per
// second — the floor the cursor's golden advance pays, and the
// denominator of the per-fault cost model in docs/PERFORMANCE.md.
func BenchmarkGoldenRun(b *testing.B) {
	r := sharedBenchRunner(b)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m := cpu.New(r.Cfg, r.Prog)
		res := m.Run(cpu.RunOptions{MaxCycles: r.Golden.Cycles + 10})
		cycles += res.Cycles
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
