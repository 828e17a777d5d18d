package avgi

// Determinism gates for the serial tick engine (internal/engine): the same
// machine built twice and run through the engine must finish on the same
// cycle, with the same commit count and the same output digest — the
// repeatability contract every other subsystem (trace comparison, journal
// resume, the golden-cursor fault path, the golden site timeline) is built
// on. The harness follows the build-twice/run/compare idiom of
// deterministic simulators: no tolerance, any divergence is a hard failure.
//
// The cluster gates additionally run under -race in CI: the engine is
// serial by design, so a data-race report here means a component broke the
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

func clusterFingerprint(t *testing.T, cfg MachineConfig, workload string, cores int) runFingerprint {
	t.Helper()
	cl, err := NewCluster(cfg, workload, cores)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run(RunOptions{MaxCycles: 50_000_000})
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

// TestClusterDeterminism is the multi-core gate: the 2-core shared-L2
// cluster, built twice and run through the engine, on both variants. The
// cluster output must also be exactly two copies of the single-core
// output — cores in disjoint physical windows running the same program
// must not perturb each other through the shared L2 in a fault-free run.
func TestClusterDeterminism(t *testing.T) {
	for _, cfg := range []MachineConfig{ConfigA72(), ConfigA15()} {
		for _, name := range []string{"sha", "crc32", "qsort"} {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				a := clusterFingerprint(t, cfg, name, 2)
				b := clusterFingerprint(t, cfg, name, 2)
				if a != b {
					t.Fatalf("same-seed cluster runs diverged:\n  first  %v\n  second %v", a, b)
				}
				if a.status != cpu.StatusHalted {
					t.Fatalf("cluster golden run did not halt: %v", a)
				}

				single, err := NewMachine(cfg, name)
				if err != nil {
					t.Fatal(err)
				}
				sres := single.Run(RunOptions{MaxCycles: 50_000_000})
				want := sha256.Sum256(append(append([]byte(nil), sres.Output...), sres.Output...))
				if a.digest != want {
					t.Fatalf("cluster output is not two copies of the single-core output")
				}
				if a.commits != 2*sres.Commits {
					t.Fatalf("cluster commits %d, want %d", a.commits, 2*sres.Commits)
				}
			})
		}
	}
}

// TestClusterDeterminismFourCores widens the arbitration surface: four
// cores contending on one L2 must still be perfectly repeatable.
func TestClusterDeterminismFourCores(t *testing.T) {
	cfg := ConfigA72()
	a := clusterFingerprint(t, cfg, "sha", 4)
	b := clusterFingerprint(t, cfg, "sha", 4)
	if a != b {
		t.Fatalf("4-core runs diverged:\n  first  %v\n  second %v", a, b)
	}
	if a.status != cpu.StatusHalted {
		t.Fatalf("4-core golden run did not halt: %v", a)
	}
}
