package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"avgi/internal/prog"
	"avgi/internal/trace"
)

// TestMachineDeltaSyncCursorLifecycle drives a machine through the exact
// lifecycle of a cursor worker — advance, delta-capture, run a faulty
// window with real bit flips across all twelve structures, delta-rewind —
// and proves the rewound machine finishes the workload bit-identically to
// an uninterrupted reference run. This is the machine-level dirty-delta
// property test: if any touched state escaped tracking, the post-rewind
// run diverges in trace, output, stats or final cycle.
func TestMachineDeltaSyncCursorLifecycle(t *testing.T) {
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			w, err := prog.ByName("sha")
			if err != nil {
				t.Fatal(err)
			}
			p := w.Build(cfg.Variant)

			ref := New(cfg, p)
			var refTrace trace.Capture
			ref.SetSink(&refTrace)
			ref.Run(RunOptions{MaxCycles: snapTestMaxCycles})

			m := New(cfg, p)
			m.Run(RunOptions{StopAtCycle: ref.Cycle() / 8, MaxCycles: snapTestMaxCycles})
			m.BeginDeltaTracking()
			snap := m.Snapshot(nil)

			rng := rand.New(rand.NewSource(11))
			step := ref.Cycle() / 16
			for round := 0; round < 10; round++ {
				// Golden advance to the next "injection cycle".
				m.Run(RunOptions{StopAtCycle: m.Cycle() + step, MaxCycles: snapTestMaxCycles})
				m.SyncSnapshot(snap)

				// Faulty window: flip bits in several structures and run on.
				for i := 0; i < 4; i++ {
					name := StructureNames[rng.Intn(len(StructureNames))]
					tgt := m.Target(name)
					tgt.FlipBit(uint64(rng.Int63n(int64(tgt.BitCount()))))
				}
				m.Run(RunOptions{StopAtCycle: m.Cycle() + step/2, MaxCycles: snapTestMaxCycles})
				m.SyncRestore(snap)
			}

			// The cursor machine now resumes the golden run from its last
			// sync point; everything downstream must match the reference.
			var tail trace.Capture
			m.SetSink(&tail)
			prefix := int(m.Stats.Commits)
			m.Run(RunOptions{MaxCycles: snapTestMaxCycles})

			if m.Status() != ref.Status() || m.Crash() != ref.Crash() {
				t.Errorf("status %v/%v, want %v/%v", m.Status(), m.Crash(), ref.Status(), ref.Crash())
			}
			if m.Cycle() != ref.Cycle() {
				t.Errorf("final cycle %d, want %d", m.Cycle(), ref.Cycle())
			}
			if m.Stats != ref.Stats {
				t.Errorf("stats diverged:\n got %+v\nwant %+v", m.Stats, ref.Stats)
			}
			if !bytes.Equal(m.Output(), ref.Output()) {
				t.Errorf("output diverged (%d vs %d bytes)", len(m.Output()), len(ref.Output()))
			}
			want := refTrace.Records()
			for i, rec := range tail.Records() {
				if !rec.Same(want[prefix+i]) {
					t.Fatalf("trace record %d differs:\n got %+v\nwant %+v",
						prefix+i, rec, want[prefix+i])
				}
			}
		})
	}
}

// TestMachineSyncSnapshotGeometryGuards pins the misuse panics of the
// delta-sync pair: syncing without tracking, and syncing against a
// snapshot from a different machine geometry.
func TestMachineSyncSnapshotGeometryGuards(t *testing.T) {
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	m72 := New(ConfigA72(), w.Build(ConfigA72().Variant))
	snap := m72.Snapshot(nil)

	mustPanic := func(label string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", label)
			}
		}()
		f()
	}
	mustPanic("SyncSnapshot without tracking", func() { m72.SyncSnapshot(snap) })
	mustPanic("SyncRestore without tracking", func() { m72.SyncRestore(snap) })

	m15 := New(ConfigA15(), w.Build(ConfigA15().Variant))
	m15.BeginDeltaTracking()
	mustPanic("cross-geometry sync", func() { m15.SyncSnapshot(snap) })
}
