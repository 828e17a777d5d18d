package campaign

import (
	"sync"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/forensics"
	"avgi/internal/obs"
	"avgi/internal/prog"
)

// The benchmark pair below quantifies the telemetry overhead the PR
// budgets at <3%: BenchmarkCampaignRun is the nil-observer hot path,
// BenchmarkCampaignRunObserved the fully instrumented one. Compare with
//
//	go test -run=^$ -bench=BenchmarkCampaignRun ./internal/campaign/
//
// The golden run is shared across iterations; each iteration executes a
// full 64-fault AVGI-mode campaign on one worker so the per-fault
// instrumentation cost is not hidden by parallelism.

var (
	benchOnce   sync.Once
	benchRunner *Runner
)

func sharedBenchRunner(b *testing.B) *Runner {
	b.Helper()
	benchOnce.Do(func() {
		w, err := prog.ByName("sha")
		if err != nil {
			return
		}
		cfg := cpu.ConfigA72()
		benchRunner, _ = NewRunner(cfg, w.Build(cfg.Variant))
	})
	if benchRunner == nil {
		b.Fatal("bench runner setup failed")
	}
	return benchRunner
}

func benchCampaign(b *testing.B, o *obs.Observer) {
	r := sharedBenchRunner(b)
	faults := r.FaultList("RF", 64, 1)
	r.Obs = o
	defer func() { r.Obs = nil }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(faults, ModeAVGI, 2000, 1)
	}
}

func BenchmarkCampaignRun(b *testing.B) {
	benchCampaign(b, nil)
}

func BenchmarkCampaignRunObserved(b *testing.B) {
	benchCampaign(b, obs.New(nil))
}

// BenchmarkCampaignRunForensics quantifies the fault-probe overhead of
// attributing every fault; compare against BenchmarkCampaignRun, whose
// nil-probe hot path must stay at 0%:
//
//	go test -run=^$ -bench='BenchmarkCampaignRun($|Forensics)' ./internal/campaign/
func BenchmarkCampaignRunForensics(b *testing.B) {
	r := sharedBenchRunner(b)
	faults := r.FaultList("RF", 64, 1)
	r.Forensics = forensics.NewExplorer()
	defer func() { r.Forensics = nil }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(faults, ModeAVGI, 2000, 1)
	}
}
