package campaign

import (
	"math"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/cpu"
	"avgi/internal/imm"
	"avgi/internal/prog"
)

// escProgram writes a 2 KiB output early, then spins long enough that the
// dirty output lines sit exposed in the data caches, and halts without
// ever re-reading them. Faults striking those lines during the spin can
// only be observed at the output — the ESC scenario of Section IV.D.
func escProgram(cfg cpu.Config) *asm.Program {
	b := asm.NewBuilder("escdemo", cfg.Variant)
	const outBytes = 2048
	b.Li(1, asm.DefaultOutBase)
	b.Li(2, 0)
	b.Li(3, outBytes/8)
	b.Label("fill")
	// Pattern derived from the index so corruption is detectable.
	b.Slli(4, 2, 3)
	b.Addi(5, 2, 77)
	b.Mul(5, 5, 5)
	b.Add(6, 4, 1)
	b.StoreW(5, 6, 0)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "fill")
	b.Li(4, asm.DefaultOutLenAddr)
	b.Li(5, outBytes)
	b.StoreW(5, 4, 0)
	// Spin without touching the output again.
	b.Li(2, 0)
	b.Li(3, 6000)
	b.Label("spin")
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "spin")
	b.Halt()
	return b.MustAssemble()
}

func TestESCFaultsObservedEndToEnd(t *testing.T) {
	cfg := cpu.ConfigA72()
	r, err := NewRunner(cfg, escProgram(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// The golden profile must see substantial dirty-output exposure.
	if exp := r.OutputExposure["L1D (Data)"]; exp < 0.05 {
		t.Fatalf("L1D exposure %.3f too low for the scenario", exp)
	}
	results := r.Run(r.FaultList("L1D (Data)", 200, 77), ModeExhaustive, 0, 0)
	s := Summarize(results)
	if s.ByIMM[imm.ESC] == 0 {
		t.Fatalf("no ESC faults observed: %v", s.ByIMM)
	}
	// Every ESC fault is an SDC with no commit-trace deviation.
	for _, res := range results {
		if res.IMM == imm.ESC {
			if res.Effect != imm.SDC {
				t.Errorf("ESC fault with effect %v", res.Effect)
			}
			if res.Manifested {
				t.Error("ESC fault must never deviate in the commit trace")
			}
		}
	}
	// And the zero-output control: a program with tiny output cannot
	// escape through it (the sha case of the paper).
	t.Logf("ESC faults: %d of %d (exposure %.3f)",
		s.ByIMM[imm.ESC], s.Total, r.OutputExposure["L1D (Data)"])
}

func TestExposureZeroForTinyOutput(t *testing.T) {
	cfg := cpu.ConfigA72()
	b := asm.NewBuilder("tiny", cfg.Variant)
	b.Li(1, asm.DefaultOutBase)
	b.Li(2, 42)
	b.Sb(2, 1, 0)
	b.Li(3, asm.DefaultOutLenAddr)
	b.Li(4, 1)
	b.StoreW(4, 3, 0)
	b.Halt()
	r, err := NewRunner(cfg, b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	// One output byte written immediately before halt: exposure is
	// essentially zero (at most a sample or two see the dirty line).
	if exp := r.OutputExposure["L1D (Data)"]; exp > 0.05 {
		t.Errorf("tiny output exposure %.3f", exp)
	}
}

// exposurePins are the OutputExposure bits of every program on both
// machines, as math.Float64bits of the L1D and L2 fractions (each cache's
// data and tag arrays share its fraction), recorded when the sampler moved
// out of the machine's tick into NewRunner.
var exposurePins = []struct {
	machine, workload string
	l1d, l2           uint64
}{
	{"a72", "basicmath", 0x3fb4e04415e917dd, 0x0000000000000000},
	{"a72", "bitcount", 0x0000000000000000, 0x0000000000000000},
	{"a72", "blowfish", 0x3f7c748f90057695, 0x3f8f474de52389fd},
	{"a72", "cg", 0x3f2e3ac1e3ac1e3a, 0x0000000000000000},
	{"a72", "crc32", 0x3f799f476e7990fb, 0x3f34eca938f91562},
	{"a72", "dijkstra", 0x3f219eae5ac340a4, 0x0000000000000000},
	{"a72", "fft", 0x3f821aef42d94265, 0x0000000000000000},
	{"a72", "is", 0x3fb9b37173eaf944, 0x3f74e4e9e3f0e10f},
	{"a72", "mg", 0x3f78e20445836180, 0x0000000000000000},
	{"a72", "qsort", 0x3fb8968aac091166, 0x3f697325832fc731},
	{"a72", "rijndael", 0x3fcb130b37622089, 0x3f73bc2682ad4fdc},
	{"a72", "sha", 0x0000000000000000, 0x0000000000000000},
	{"a72", "stringsearch", 0x3f673dbec93141ec, 0x3f3ac78701cdc55b},
	{"a15", "basicmath", 0x3fb7a511a8d4c7a7, 0x0000000000000000},
	{"a15", "bitcount", 0x0000000000000000, 0x0000000000000000},
	{"a15", "blowfish", 0x3f80bda694c6f8d9, 0x3f9fc0bcdcc83a42},
	{"a15", "cg", 0x3f275f67b564574f, 0x0000000000000000},
	{"a15", "crc32", 0x3f8610c6ba085024, 0x3f49e2e0c32476e7},
	{"a15", "dijkstra", 0x3f2a5daa92b29b3d, 0x0000000000000000},
	{"a15", "fft", 0x3fa866f6ec31f398, 0x3f69652dffc600b9},
	{"a15", "is", 0x3f924a126b52102c, 0x3f8d1a67467cbe60},
	{"a15", "mg", 0x3f7ca8a3f1a9b707, 0x3f35bf46c12a00ea},
	{"a15", "qsort", 0x3fb9ec949185396e, 0x3f6bc072b240361d},
	{"a15", "rijndael", 0x3fce110e9eaf4b27, 0x3f9693b3695bd388},
	{"a15", "sha", 0x0000000000000000, 0x0000000000000000},
	{"a15", "stringsearch", 0x3f74c544f661d0f4, 0x3f49f69633fa451d},
}

// TestOutputExposurePinned holds the golden run's output exposure, the ESC
// predictor's input, to its recorded bits on all thirteen programs on both
// machines, and its cycles and commits to an uninterrupted run's. On
// escProgram, which leaves its output dirty through a long spin, most
// samples must see dirty output lines in L1D.
func TestOutputExposurePinned(t *testing.T) {
	if raceEnabled {
		t.Skip("a fixed value, not a schedule: nothing for the race detector to see")
	}
	cfgs := map[string]cpu.Config{"a72": cpu.ConfigA72(), "a15": cpu.ConfigA15()}
	for _, pin := range exposurePins {
		cfg := cfgs[pin.machine]
		w, err := prog.ByName(pin.workload)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(cfg.Variant)
		r, err := NewRunner(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		// The sliced golden run is the uninterrupted one.
		if res := cpu.New(cfg, p).Run(cpu.RunOptions{}); res.Cycles != r.Golden.Cycles || res.Commits != r.Golden.Commits {
			t.Errorf("%s/%s: golden run %d cycles %d commits, sliced %d and %d", pin.workload, pin.machine,
				res.Cycles, res.Commits, r.Golden.Cycles, r.Golden.Commits)
		}
		for name, want := range map[string]uint64{
			"L1D (Data)": pin.l1d, "L1D (Tag)": pin.l1d, "L2 (Data)": pin.l2, "L2 (Tag)": pin.l2,
		} {
			if got := math.Float64bits(r.OutputExposure[name]); got != want {
				t.Errorf("%s/%s %s: exposure %v (%#016x), pinned %v (%#016x)", pin.workload, pin.machine,
					name, r.OutputExposure[name], got, math.Float64frombits(want), want)
			}
		}
		if len(r.OutputExposure) != 4 {
			t.Errorf("%s/%s: exposure for %d arrays, want the 4 ESC-capable ones", pin.workload, pin.machine, len(r.OutputExposure))
		}
	}

	cfg := cpu.ConfigA72()
	p := escProgram(cfg)
	m := cpu.New(cfg, p)
	res, s := runSampled(m, p)
	if res.Status != cpu.StatusHalted {
		t.Fatal(res.Status)
	}
	l1d := s[m.CacheOf("L1D (Data)")]
	if len(l1d) != int(res.Cycles/exposureInterval) || len(s[m.CacheOf("L2 (Data)")]) != len(l1d) {
		t.Fatalf("%d samples of L1D, %d of L2, over %d cycles", len(l1d), len(s[m.CacheOf("L2 (Data)")]), res.Cycles)
	}
	dirtySamples := 0
	for _, n := range l1d {
		if n > 0 {
			dirtySamples++
		}
	}
	if dirtySamples < len(l1d)/2 {
		t.Errorf("dirty output visible in only %d/%d samples", dirtySamples, len(l1d))
	}
}
