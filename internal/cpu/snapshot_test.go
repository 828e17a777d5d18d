package cpu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"avgi/internal/prog"
	"avgi/internal/trace"
)

const snapTestMaxCycles = 50_000_000

// TestSnapshotRestoreBitIdentical is the correctness bar for the checkpoint
// subsystem: capturing a machine mid-run, dirtying an unrelated scratch
// machine, restoring the snapshot into it and running to completion must
// produce a commit trace (including cycle numbers), output, statistics and
// final status byte-identical to the uninterrupted reference run — across
// all 13 workloads on both ISA variants.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	workloads := prog.All()
	if testing.Short() {
		workloads = workloads[:3]
	}
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		for _, w := range workloads {
			w := w
			cfg := cfg
			t.Run(w.Name+"/"+cfg.Variant.String(), func(t *testing.T) {
				t.Parallel()
				p := w.Build(cfg.Variant)

				// Reference: one uninterrupted run.
				ref := New(cfg, p)
				var refTrace trace.Capture
				ref.SetSink(&refTrace)
				ref.Run(RunOptions{MaxCycles: snapTestMaxCycles})
				if ref.Status() != StatusHalted {
					t.Fatalf("reference run ended %v", ref.Status())
				}

				// Snapshot a second machine halfway through.
				mid := ref.Cycle() / 2
				m := New(cfg, p)
				var mTrace trace.Capture
				m.SetSink(&mTrace)
				m.Run(RunOptions{StopAtCycle: mid, MaxCycles: snapTestMaxCycles})
				snap := m.Snapshot(nil)
				if snap.Cycle() != m.Cycle() {
					t.Fatalf("snap cycle %d, machine at %d", snap.Cycle(), m.Cycle())
				}
				if snap.Bytes() == 0 {
					t.Error("snapshot reports zero bytes")
				}
				prefix := mTrace.Len()

				// The source machine keeps running after the capture and
				// must still match the reference (COW must not corrupt it).
				m.Run(RunOptions{MaxCycles: snapTestMaxCycles})
				if !bytes.Equal(m.Output(), ref.Output()) {
					t.Error("source output diverged after snapshot")
				}

				// Dirty an unrelated scratch machine, then rewind it.
				scratch := New(cfg, p)
				scratch.Run(RunOptions{StopAtCycle: ref.Cycle() / 3, MaxCycles: snapTestMaxCycles})
				scratch.Restore(snap)
				if scratch.Cycle() != mid && scratch.Cycle() != snap.Cycle() {
					t.Fatalf("restored cycle %d", scratch.Cycle())
				}
				var sTrace trace.Capture
				scratch.SetSink(&sTrace)
				scratch.Run(RunOptions{MaxCycles: snapTestMaxCycles})

				if scratch.Status() != ref.Status() || scratch.Crash() != ref.Crash() {
					t.Errorf("status %v/%v, want %v/%v",
						scratch.Status(), scratch.Crash(), ref.Status(), ref.Crash())
				}
				if scratch.Cycle() != ref.Cycle() {
					t.Errorf("final cycle %d, want %d", scratch.Cycle(), ref.Cycle())
				}
				if scratch.Stats != ref.Stats {
					t.Errorf("stats diverged:\n got %+v\nwant %+v", scratch.Stats, ref.Stats)
				}
				if !bytes.Equal(scratch.Output(), ref.Output()) {
					t.Errorf("output diverged (%d vs %d bytes)",
						len(scratch.Output()), len(ref.Output()))
				}

				// Full trace = source prefix up to the capture + the
				// restored machine's tail, bit-identical to the reference.
				got := append(mTrace.Records()[:prefix:prefix], sTrace.Records()...)
				want := refTrace.Records()
				if len(got) != len(want) {
					t.Fatalf("trace length %d, want %d", len(got), len(want))
				}
				for i := range got {
					if !got[i].Same(want[i]) {
						t.Fatalf("trace record %d differs:\n got %+v\nwant %+v",
							i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestSnapshotReuseAcrossCaptures verifies that re-capturing into the same
// Snapshot buffers yields correct state each time.
func TestSnapshotReuseAcrossCaptures(t *testing.T) {
	cfg := ConfigA72()
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cfg.Variant)

	ref := New(cfg, p)
	ref.Run(RunOptions{MaxCycles: snapTestMaxCycles})

	m := New(cfg, p)
	scratch := New(cfg, p)
	var snap *Snapshot
	for _, frac := range []uint64{4, 2} {
		m.Run(RunOptions{StopAtCycle: ref.Cycle() / frac, MaxCycles: snapTestMaxCycles})
		snap = m.Snapshot(snap)
		scratch.Restore(snap)
		scratch.Run(RunOptions{MaxCycles: snapTestMaxCycles})
		if !bytes.Equal(scratch.Output(), ref.Output()) {
			t.Fatalf("restore from reused snapshot at 1/%d diverged", frac)
		}
	}
	// Restoring again from the final snapshot still works: the snapshot
	// must not have been perturbed by the previous restore-and-run.
	scratch.Restore(snap)
	scratch.Run(RunOptions{MaxCycles: snapTestMaxCycles})
	if !bytes.Equal(scratch.Output(), ref.Output()) {
		t.Fatal("second restore from same snapshot diverged")
	}
}

// nonStateSlices are the Machine fields whose slices belong to the machine
// object, not to the state it holds: the two dirty sets. A copy leaves the
// destination's own alone (a snapshot's and a clone's stay zero).
var nonStateSlices = map[string]bool{"bimTouched": true, "btbTouched": true}

func isState(name string) bool { return !nonStateSlices[strings.Split(name, ".")[0]] }

// writable lifts reflect's read-only mark from an unexported field or
// element so the test can read it as an interface and write to it.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// sliceFields returns every slice-typed field of m by name, descending into
// struct-typed fields (a dirty set's are "bimTouched.rows" and ".marked").
func sliceFields(m *Machine) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				out[name] = writable(f)
			case reflect.Struct:
				walk(name+".", f)
			}
		}
	}
	walk("", reflect.ValueOf(m).Elem())
	return out
}

// perturb changes the value v holds; element types it cannot change (a
// pointer, say) panic, which is the prompt to teach it the new kind.
func perturb(v reflect.Value) {
	v = writable(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Struct:
		perturb(v.Field(0))
	case reflect.Array:
		perturb(v.Index(0))
	default:
		panic("perturb: unsupported kind " + v.Kind().String())
	}
}

// perturbState changes element 1 of every state slice of m, filling empty
// ones first, and reports predictor writes to the delta tracker the way
// the pipeline does.
func perturbState(m *Machine) {
	for name, f := range sliceFields(m) {
		if !isState(name) {
			continue
		}
		if f.Len() < 2 {
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		}
		perturb(f.Index(1))
	}
	m.bimTouched.Touch(1)
	m.btbTouched.Touch(1)
}

func overlaps(a, b reflect.Value) bool {
	if a.Cap() == 0 || b.Cap() == 0 {
		return false
	}
	size := a.Type().Elem().Size()
	a0, b0 := a.Pointer(), b.Pointer()
	return a0 < b0+uintptr(b.Cap())*size && b0 < a0+uintptr(a.Cap())*size
}

// TestCoreCopySharesNoBuffers is the guard on the core-state slice list in
// copyCore. After each of the six copy operations, every
// slice field of Machine — found by reflection, so a field added later is
// included without an edit here — must share no backing array between
// destination and source, and must either be state (equal after the copy,
// and unaffected when the source is changed afterwards) or be named in
// nonStateSlices. A new slice that copyCore does not copy rides the struct
// assignment, aliases its source, and fails here by name.
func TestCoreCopySharesNoBuffers(t *testing.T) {
	cfg := ConfigA72()
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cfg.Variant)

	check := func(t *testing.T, dst, src *Machine) {
		t.Helper()
		dstFields := sliceFields(dst)
		for name, s := range sliceFields(src) {
			d := dstFields[name]
			if overlaps(d, s) {
				t.Errorf("%s: destination shares the source's backing array", name)
				continue
			}
			if !isState(name) {
				continue
			}
			if s.Len() < 2 {
				t.Fatalf("%s: source has %d elements; the test must fill it", name, s.Len())
			}
			if !reflect.DeepEqual(d.Interface(), s.Interface()) {
				t.Errorf("%s: not copied", name)
				continue
			}
			want := reflect.MakeSlice(d.Type(), d.Len(), d.Len())
			reflect.Copy(want, d)
			perturb(s.Index(0))
			if !reflect.DeepEqual(d.Interface(), want.Interface()) {
				t.Errorf("%s: destination changed when the source was written", name)
			}
		}
	}

	t.Run("Snapshot", func(t *testing.T) {
		m := New(cfg, p)
		perturbState(m)
		snap := m.Snapshot(nil)
		check(t, &snap.m, m)
	})
	t.Run("Restore", func(t *testing.T) {
		m, scratch := New(cfg, p), New(cfg, p)
		perturbState(m)
		snap := m.Snapshot(nil)
		scratch.Restore(snap)
		check(t, scratch, &snap.m)
	})
	t.Run("SyncSnapshot", func(t *testing.T) {
		m := New(cfg, p)
		m.BeginDeltaTracking()
		snap := m.Snapshot(nil)
		perturbState(m)
		m.SyncSnapshot(snap)
		check(t, &snap.m, m)
	})
	t.Run("SyncRestore", func(t *testing.T) {
		m := New(cfg, p)
		perturbState(m) // fills the slices a fresh machine leaves empty
		m.BeginDeltaTracking()
		snap := m.Snapshot(nil)
		perturbState(m)
		m.SyncRestore(snap)
		check(t, m, &snap.m)
	})
	t.Run("Clone", func(t *testing.T) {
		m := New(cfg, p)
		m.BeginDeltaTracking()
		perturbState(m)
		check(t, m.Clone(), m)
	})
	// A chain: mid copies what changed since first; last, taken with
	// nothing written, shares every array with mid. A machine restored from
	// the end of the chain shares no buffer with any snapshot in it.
	t.Run("SnapshotAfter", func(t *testing.T) {
		m := New(cfg, p)
		perturbState(m)
		m.BeginDeltaTracking()
		first := m.Snapshot(nil)
		perturbState(m)
		mid := m.SnapshotAfter(first)
		last := m.SnapshotAfter(mid)
		midFields := sliceFields(&mid.m)
		for name, f := range sliceFields(&last.m) {
			if isState(name) && f.Len() > 0 && !overlaps(f, midFields[name]) {
				t.Errorf("%s: a capture with nothing written since its predecessor copied it", name)
			}
		}
		check(t, &last.m, m)

		scratch := New(cfg, p)
		scratch.Restore(last)
		for i, snap := range []*Snapshot{first, mid, last} {
			fields := sliceFields(&snap.m)
			for name, f := range sliceFields(scratch) {
				if overlaps(f, fields[name]) {
					t.Errorf("%s: the restored machine shares snapshot %d's backing array", name, i)
				}
			}
		}
		check(t, scratch, &last.m)
	})
}

// TestQueueCapacityInvariant: the fetch queue is born at Cfg.FetchQueue and
// keeps exactly that capacity wherever a machine is born, copied, rewound or
// recycled, so it never reallocates (a clone used to come out with capacity
// equal to its current length, and a snapshot's buffers with whatever the
// first capture happened to need); the issue queue's masks and waiter rows
// keep their configured sizes and match their definition (selectState).
func TestQueueCapacityInvariant(t *testing.T) {
	cfg := ConfigA72()
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cfg.Variant)
	check := func(label string, m *Machine) {
		t.Helper()
		if cap(m.fq) != cfg.FetchQueue {
			t.Errorf("%s: cap(fq) %d, want %d", label, cap(m.fq), cfg.FetchQueue)
		}
		if err := selectState(m); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	// Sample the copies at several queue occupancies.
	m := New(cfg, p)
	check("New", m)
	scratch := New(cfg, p)
	for _, stop := range []uint64{0, 40, 700, 2500} {
		m.Run(RunOptions{StopAtCycle: stop})
		check("Run", m)
		c := m.Clone()
		check("Clone", c)
		snap := c.Snapshot(nil)
		check("Snapshot", &snap.m)

		scratch.Restore(snap)
		check("Restore", scratch)

		// A pool round trip as campaign's cursor makes it: rewind, track,
		// sync around a window, stop tracking (ckpt.Pool.Put), rewind again.
		scratch.BeginDeltaTracking()
		local := scratch.Snapshot(nil)
		scratch.Run(RunOptions{StopAtCycle: scratch.Cycle() + 300})
		scratch.SyncSnapshot(local)
		check("SyncSnapshot", &local.m)
		scratch.Run(RunOptions{StopAtCycle: scratch.Cycle() + 300})
		scratch.SyncRestore(local)
		check("SyncRestore", scratch)
		scratch.EndDeltaTracking()
		scratch.Restore(snap)
		check("Restore after recycling", scratch)
	}
}

// TestROBEntrySize: every copy of the machine moves the whole ROB, and the
// pipeline reads an entry per stage, so a field added to robEntry goes in
// without padding or the entry grows past two host cache lines.
func TestROBEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(robEntry{}); got != 128 {
		t.Errorf("robEntry is %d bytes, want 128", got)
	}
}
