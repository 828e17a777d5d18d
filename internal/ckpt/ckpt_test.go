package ckpt

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"avgi/internal/cpu"
	"avgi/internal/prog"
)

func TestDefaultInterval(t *testing.T) {
	if got := DefaultInterval(1000); got != MinInterval {
		t.Errorf("short golden interval = %d, want %d", got, MinInterval)
	}
	if got := DefaultInterval(640_000); got != 2_500 {
		t.Errorf("long golden interval = %d, want 2500", got)
	}
}

func goldenFor(t *testing.T, cfg cpu.Config, name string) (p cpu.Result, w prog.Workload) {
	t.Helper()
	wl, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cfg, wl.Build(cfg.Variant))
	res := m.Run(cpu.RunOptions{})
	if res.Status != cpu.StatusHalted {
		t.Fatalf("golden run ended %v", res.Status)
	}
	return res, wl
}

func TestStoreRecordAndSeek(t *testing.T) {
	cfg := cpu.ConfigA72()
	golden, wl := goldenFor(t, cfg, "sha")
	interval := uint64(1000)
	st := Record(cfg, wl.Build(cfg.Variant), golden.Cycles, interval)

	if st.Interval() != interval {
		t.Errorf("interval = %d", st.Interval())
	}
	want := int(golden.Cycles/interval) + 1
	if st.Count() != want {
		t.Errorf("count = %d, want %d", st.Count(), want)
	}
	if st.Bytes() == 0 {
		t.Error("store reports zero bytes")
	}

	// cycles are 0, K, 2K, ... and Seek lands on the floor checkpoint.
	for _, tc := range []struct{ cycle, wantSnap, wantDist uint64 }{
		{0, 0, 0},
		{1, 0, 1},
		{999, 0, 999},
		{1000, 1000, 0},
		{1001, 1000, 1},
		{2500, 2000, 500},
		{golden.Cycles, golden.Cycles / interval * interval, golden.Cycles % interval},
	} {
		snap, dist := st.Seek(tc.cycle)
		if snap.Cycle() != tc.wantSnap || dist != tc.wantDist {
			t.Errorf("Seek(%d) = snap@%d dist %d, want snap@%d dist %d",
				tc.cycle, snap.Cycle(), dist, tc.wantSnap, tc.wantDist)
		}
	}
}

func TestStoreZeroIntervalUsesDefault(t *testing.T) {
	cfg := cpu.ConfigA72()
	golden, wl := goldenFor(t, cfg, "bitcount")
	st := Record(cfg, wl.Build(cfg.Variant), golden.Cycles, 0)
	if st.Interval() != DefaultInterval(golden.Cycles) {
		t.Errorf("interval = %d, want %d", st.Interval(), DefaultInterval(golden.Cycles))
	}
}

// TestStoreRestoreMatchesFreshRun proves a checkpoint seek+restore+advance
// reaches exactly the state a fresh machine run from cycle 0 reaches.
func TestStoreRestoreMatchesFreshRun(t *testing.T) {
	cfg := cpu.ConfigA72()
	golden, wl := goldenFor(t, cfg, "crc32")
	p := wl.Build(cfg.Variant)
	st := Record(cfg, p, golden.Cycles, 1000)

	pool := NewPool(cfg, p)
	for _, cycle := range []uint64{1, 777, 1000, 2421, golden.Cycles - 1} {
		snap, dist := st.Seek(cycle)
		m, _ := pool.Get()
		m.Restore(snap)
		if dist > 0 {
			m.Run(cpu.RunOptions{StopAtCycle: cycle, MaxCycles: golden.Cycles + 1})
		}
		if m.Cycle() != cycle {
			t.Fatalf("seek+advance to %d landed at %d", cycle, m.Cycle())
		}
		res := m.Run(cpu.RunOptions{})
		if res.Status != cpu.StatusHalted || res.Cycles != golden.Cycles {
			t.Errorf("run from checkpoint@%d: %v after %d cycles, want halt at %d",
				cycle, res.Status, res.Cycles, golden.Cycles)
		}
		if !bytes.Equal(res.Output, golden.Output) {
			t.Errorf("output from checkpoint@%d diverged", cycle)
		}
		pool.Put(m)
	}
}

// TestStoreConcurrentWorkers exercises the shared-store contract under the
// race detector: many workers seeking and restoring from one store.
func TestStoreConcurrentWorkers(t *testing.T) {
	cfg := cpu.ConfigA72()
	golden, wl := goldenFor(t, cfg, "sha")
	p := wl.Build(cfg.Variant)
	st := Record(cfg, p, golden.Cycles, 1000)
	pool := NewPool(cfg, p)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cycle := uint64(w*1500 + i*700 + 1)
				if cycle > golden.Cycles {
					cycle = golden.Cycles
				}
				snap, _ := st.Seek(cycle)
				m, _ := pool.Get()
				m.Restore(snap)
				res := m.Run(cpu.RunOptions{})
				if !bytes.Equal(res.Output, golden.Output) {
					t.Errorf("worker %d fault %d diverged", w, i)
				}
				pool.Put(m)
			}
		}(w)
	}
	wg.Wait()
}

func TestPoolReuse(t *testing.T) {
	cfg := cpu.ConfigA72()
	wl, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cfg, wl.Build(cfg.Variant))
	m1, reused := pool.Get()
	if reused {
		t.Error("first Get reported reuse")
	}
	pool.Put(m1)
	m2, reused := pool.Get()
	if !reused || m2 != m1 {
		t.Error("Put machine was not recycled")
	}
}

// stateDiff names the fields of a and b, two machines, that differ: the
// Machine's, and for Mem the Hierarchy's.
func stateDiff(a, b *cpu.Machine) []string {
	var out []string
	var walk func(path string, a, b reflect.Value)
	walk = func(path string, a, b reflect.Value) {
		for i := 0; i < a.NumField(); i++ {
			name := path + a.Type().Field(i).Name
			fa, fb := a.Field(i), b.Field(i)
			if name == "Mem" {
				walk("Mem.", fa.Elem(), fb.Elem())
				continue
			}
			fa = reflect.NewAt(fa.Type(), unsafe.Pointer(fa.UnsafeAddr())).Elem()
			fb = reflect.NewAt(fb.Type(), unsafe.Pointer(fb.UnsafeAddr())).Elem()
			if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
				out = append(out, name)
			}
		}
	}
	walk("", reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
	return out
}

// TestStoreChainedRestoreMatchesFlat holds the chained store to the flat
// capture it replaces, on all 13 programs on both machines: restoring from
// every checkpoint Record chained must give the machine a flat
// Snapshot(nil), taken at the same cycle of a fresh run without delta
// tracking, restores, field by field through every cache, TLB and RAM page.
func TestStoreChainedRestoreMatchesFlat(t *testing.T) {
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		for _, wl := range prog.All() {
			cfg, wl := cfg, wl
			t.Run(wl.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				p := wl.Build(cfg.Variant)
				golden := cpu.New(cfg, p)
				golden.Run(cpu.RunOptions{})
				st := Record(cfg, p, golden.Cycle(), 0)
				if st.Count() < 2 {
					t.Fatalf("%d checkpoints: nothing chained", st.Count())
				}
				fresh := cpu.New(cfg, p)
				fromChain, fromFlat := cpu.New(cfg, p), cpu.New(cfg, p)
				for i, snap := range st.snaps {
					if snap.Cycle() > 0 {
						fresh.Run(cpu.RunOptions{StopAtCycle: snap.Cycle()})
					}
					if fresh.Cycle() != snap.Cycle() {
						t.Fatalf("fresh run at %d, checkpoint %d at %d", fresh.Cycle(), i, snap.Cycle())
					}
					fromChain.Restore(snap)
					fromFlat.Restore(fresh.Snapshot(nil))
					if diff := stateDiff(fromChain, fromFlat); len(diff) != 0 {
						t.Fatalf("checkpoint %d (cycle %d) restores differently from a flat capture in %v", i, snap.Cycle(), diff)
					}
				}
			})
		}
	}
}

// span is a half-open byte range of memory.
type span struct{ lo, hi uintptr }

// reach appends the memory v leads to: every pointer's target and every
// slice's elements (by length), recursively, except the program the
// machine runs (Prog, text) and the RAM pages, which a fork shares with
// the machine it was taken from. A value of v's own is the caller's.
func reach(v reflect.Value, spans *[]span) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			*spans = append(*spans, span{v.Pointer(), v.Pointer() + v.Type().Elem().Size()})
			reach(v.Elem(), spans)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return
		}
		*spans = append(*spans, span{v.Pointer(), v.Pointer() + uintptr(v.Len())*v.Type().Elem().Size()})
		fallthrough
	case reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Struct, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
			for i := 0; i < v.Len(); i++ {
				reach(v.Index(i), spans)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); v.Type().Field(i).Name {
			case "Prog", "text":
			case "pages":
				*spans = append(*spans, span{f.Pointer(), f.Pointer() + uintptr(f.Len())*f.Type().Elem().Size()})
			default:
				reach(f, spans)
			}
		}
	case reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
		if !v.IsNil() {
			panic(fmt.Sprintf("reach: a snapshot holds a %s", v.Kind()))
		}
	}
}

// TestStoreBytesCountsOwnedBuffers: Store.Bytes() is the memory the chain
// of checkpoints owns, each buffer counted once however many checkpoints
// share it — the union of what the snapshots reach.
func TestStoreBytesCountsOwnedBuffers(t *testing.T) {
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		golden, wl := goldenFor(t, cfg, "qsort")
		st := Record(cfg, wl.Build(cfg.Variant), golden.Cycles, 0)
		var spans []span
		for _, snap := range st.snaps {
			reach(reflect.ValueOf(snap), &spans)
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		var owned uint64
		end := uintptr(0)
		for _, s := range spans {
			lo := max(s.lo, end)
			if s.hi > lo {
				owned += uint64(s.hi - lo)
				end = s.hi
			}
		}
		if st.Bytes() != owned {
			t.Errorf("%s: Store.Bytes() = %d, the chain owns %d", cfg.Name, st.Bytes(), owned)
		}
		if full := st.snaps[0].Bytes(); st.Bytes() > full*uint64(st.Count())/2 {
			t.Errorf("%s: %d checkpoints own %d bytes, a flat capture is %d: the chain shares little", cfg.Name, st.Count(), st.Bytes(), full)
		}
	}
}
