package avgi

// Determinism gates for the serial tick engine (internal/engine): the same
// machine built twice and run through the engine must finish on the same
// cycle, with the same commit count and the same output digest — the
// repeatability contract every other subsystem (trace comparison, journal
// resume, the golden-cursor fault path, the golden site timeline) is built
// on. The harness follows the build-twice/run/compare idiom of
// deterministic simulators: no tolerance, any divergence is a hard failure.
//
// The gate additionally runs under -race in CI: the engine is serial by
// design, so a data-race report here means a component broke the
// single-goroutine discipline, not that a tolerance needs loosening.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"avgi/internal/cpu"
)

// runFingerprint is the divergence-sensitive digest of one run.
type runFingerprint struct {
	status  cpu.Status
	cycles  uint64
	commits uint64
	digest  [32]byte
}

func (f runFingerprint) String() string {
	return fmt.Sprintf("status=%v cycles=%d commits=%d output=%x", f.status, f.cycles, f.commits, f.digest[:8])
}

func machineFingerprint(t *testing.T, cfg MachineConfig, workload string) runFingerprint {
	t.Helper()
	m, err := NewMachine(cfg, workload)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(RunOptions{MaxCycles: 50_000_000})
	return runFingerprint{res.Status, res.Cycles, res.Commits, sha256.Sum256(res.Output)}
}

// TestEngineDeterminismAllWorkloads is the full gate: all thirteen
// workloads on both machine variants (AVG64/A72 and AVG32/A15), each built
// twice and run through the engine.
func TestEngineDeterminismAllWorkloads(t *testing.T) {
	for _, cfg := range []MachineConfig{ConfigA72(), ConfigA15()} {
		for _, w := range Workloads() {
			t.Run(cfg.Name+"/"+w.Name, func(t *testing.T) {
				a := machineFingerprint(t, cfg, w.Name)
				b := machineFingerprint(t, cfg, w.Name)
				if a != b {
					t.Fatalf("same-seed runs diverged:\n  first  %v\n  second %v", a, b)
				}
				if a.status != cpu.StatusHalted {
					t.Fatalf("golden run did not halt: %v", a)
				}
			})
		}
	}
}
