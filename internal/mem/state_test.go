package mem

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// nonState names the fields of Cache and TLB that belong to the component
// object, not to the state it holds: a copy leaves the destination's alone
// (Snapshot and Clone leave them zero, or for lower to the caller).
var nonState = map[string]bool{"touched": true, "probe": true, "lower": true}

// writable lifts reflect's read-only mark from an unexported field or
// element so the test can read it as an interface and write to it.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// refFields returns, by dotted path, every field reachable through the
// struct fields of *ptr that can share memory with a copy: slices, and
// pointers, interfaces and maps. Embedded structs add no path segment, so a
// component and its snapshot name their state alike.
func refFields(ptr any) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			name := prefix + sf.Name
			switch f.Kind() {
			case reflect.Struct:
				if sf.Anonymous {
					name = strings.TrimSuffix(prefix, ".")
				}
				walk(strings.TrimPrefix(name+".", "."), f)
			case reflect.Slice, reflect.Pointer, reflect.Interface, reflect.Map:
				out[name] = writable(f)
			}
		}
	}
	walk("", reflect.ValueOf(ptr).Elem())
	return out
}

// perturb changes the integer v holds.
func perturb(v reflect.Value) {
	switch v = writable(v); v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	default:
		panic("perturb: unsupported kind " + v.Kind().String())
	}
}

// perturbState changes element 1 of every state slice of the component at
// ptr and reports rows 0 and 1 to its dirty set, as the access paths do.
func perturbState(ptr any, touched *DirtySet) {
	for name, f := range refFields(ptr) {
		if f.Kind() == reflect.Slice && !nonState[strings.Split(name, ".")[0]] {
			perturb(f.Index(1))
		}
	}
	touched.Touch(0)
	touched.Touch(1)
}

func overlaps(a, b reflect.Value) bool {
	if a.Kind() != reflect.Slice || a.Cap() == 0 || b.Cap() == 0 {
		return false
	}
	size := a.Type().Elem().Size()
	a0, b0 := a.Pointer(), b.Pointer()
	return a0 < b0+uintptr(b.Cap())*size && b0 < a0+uintptr(a.Cap())*size
}

// checkCopy requires *dst to be an independent copy of *src's state: every
// memory-sharing field of src — found by reflection, so one added later is
// included without an edit here — is either named in nonState, where the
// only demand is that no buffer is shared, or is a slice that dst holds an
// equal copy of in its own backing array. Returns the state's array bytes.
func checkCopy(t *testing.T, dst, src any) (stateBytes uint64) {
	t.Helper()
	dstFields := refFields(dst)
	for name, s := range refFields(src) {
		d, ok := dstFields[name]
		if ok && overlaps(d, s) {
			t.Errorf("%s: destination shares the source's backing array", name)
			continue
		}
		if nonState[strings.Split(name, ".")[0]] {
			continue
		}
		if s.Kind() != reflect.Slice {
			t.Errorf("%s: a %s is neither copyable state nor named in nonState", name, s.Kind())
			continue
		}
		if !ok || !reflect.DeepEqual(d.Interface(), s.Interface()) {
			t.Errorf("%s: not copied", name)
			continue
		}
		stateBytes += uint64(s.Len()) * uint64(s.Type().Elem().Size())
		want := reflect.MakeSlice(d.Type(), d.Len(), d.Len())
		reflect.Copy(want, d)
		perturb(s.Index(0))
		if !reflect.DeepEqual(d.Interface(), want.Interface()) {
			t.Errorf("%s: destination changed when the source was written", name)
		}
	}
	return stateBytes
}

// component is the copy surface Cache (over CacheSnap) and TLB (over
// TLBSnap) share.
type component[S any] interface {
	Snapshot(*S) *S
	Restore(*S)
	SyncSnapshot(*S) uint64
	SyncRestore(*S) uint64
	BeginDeltaTracking()
}

// checkComponent runs the five copy operations of one component type, each
// on perturbed state, through checkCopy.
func checkComponent[S any, C component[S]](t *testing.T, fresh func() C, clone func(C) C,
	touched func(C) *DirtySet, snapBytes func(*S) uint64) {
	perturbed := func(c C) C {
		perturbState(c, touched(c))
		return c
	}
	t.Run("Snapshot", func(t *testing.T) {
		c := perturbed(fresh())
		snap := c.Snapshot(nil)
		if got, want := snapBytes(snap), checkCopy(t, snap, c); got != want {
			t.Errorf("Bytes() = %d, the state arrays hold %d", got, want)
		}
	})
	t.Run("Restore", func(t *testing.T) {
		snap := perturbed(fresh()).Snapshot(nil)
		c := fresh()
		c.Restore(snap)
		checkCopy(t, c, snap)
	})
	t.Run("SyncSnapshot", func(t *testing.T) {
		c := fresh()
		c.BeginDeltaTracking()
		snap := c.Snapshot(nil)
		perturbed(c).SyncSnapshot(snap)
		checkCopy(t, snap, c)
	})
	t.Run("SyncRestore", func(t *testing.T) {
		c := perturbed(fresh())
		c.BeginDeltaTracking()
		snap := c.Snapshot(nil)
		perturbed(c).SyncRestore(snap)
		checkCopy(t, c, snap)
	})
	t.Run("Clone", func(t *testing.T) {
		c := fresh()
		c.BeginDeltaTracking()
		checkCopy(t, clone(perturbed(c)), c)
	})
}

// TestMemCopySharesNoBuffers is the guard on the state lists of internal/mem
// — cacheState.copyFrom, tlbState.copyFrom and Hierarchy.parts on the
// snapshot side, the Clone family on the other — in the style of cpu's
// TestCoreCopySharesNoBuffers. A slice added to Cache or TLB that its copy
// routine does not copy, or that its Clone leaves aliasing the source, fails
// here by name; so does a pointer or map that is not declared non-state.
func TestMemCopySharesNoBuffers(t *testing.T) {
	// copyFrom moves the arrays by name and everything else by assigning the
	// embedded scalars struct, so a state struct may hold nothing else.
	for _, typ := range []reflect.Type{reflect.TypeOf(cacheState{}), reflect.TypeOf(tlbState{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() != reflect.Slice && !f.Anonymous {
				t.Errorf("%s.%s: not an array, so copyFrom carries it only from inside the embedded scalars struct", typ.Name(), f.Name)
			}
		}
	}
	t.Run("Cache", func(t *testing.T) {
		checkComponent(t,
			func() *Cache { c, _ := newTestCacheOverRAM(10); return c },
			(*Cache).Clone,
			func(c *Cache) *DirtySet { return &c.touched },
			(*CacheSnap).Bytes)
	})
	t.Run("TLB", func(t *testing.T) {
		checkComponent(t,
			func() *TLB { return NewTLB("DTLB", 8, 20) },
			(*TLB).Clone,
			func(t *TLB) *DirtySet { return &t.touched },
			(*TLBSnap).Bytes)
	})

	// The hierarchy copies nothing itself; its list of components is what
	// can go stale. Every *TLB and *Cache field must be in parts(), and each
	// hierarchy-level operation must leave every part an independent copy.
	t.Run("Hierarchy", func(t *testing.T) {
		fresh := func() *Hierarchy {
			h := NewHierarchy(testConfig())
			h.BeginDeltaTracking()
			return h
		}
		perturbed := func(h *Hierarchy) *Hierarchy {
			tlbs, caches := h.parts()
			for _, p := range tlbs {
				perturbState(p, &p.touched)
			}
			for _, p := range caches {
				perturbState(p, &p.touched)
			}
			return h
		}
		// check compares part by part; toHier says the hierarchy is the
		// destination of the copy under test.
		check := func(t *testing.T, h *Hierarchy, snap *HierarchySnap, toHier bool) (n uint64) {
			t.Helper()
			tlbs, caches := h.parts()
			pairs := [][2]any{}
			for i := range tlbs {
				pairs = append(pairs, [2]any{&snap.tlbs[i], tlbs[i]})
			}
			for i := range caches {
				pairs = append(pairs, [2]any{&snap.caches[i], caches[i]})
			}
			for _, p := range pairs {
				if toHier {
					p[0], p[1] = p[1], p[0]
				}
				n += checkCopy(t, p[0], p[1])
			}
			return n
		}

		h := fresh()
		tlbs, caches := h.parts()
		listed := map[any]bool{}
		for _, p := range tlbs {
			listed[p] = true
		}
		for _, p := range caches {
			listed[p] = true
		}
		for name, f := range refFields(h) {
			switch f.Interface().(type) {
			case *TLB, *Cache:
				if !listed[f.Interface()] {
					t.Errorf("Hierarchy.%s is not in parts()", name)
				}
			}
		}

		snap := perturbed(h).Snapshot(nil)
		want := check(t, h, snap, false) + uint64(len(snap.ram.pages))*9
		if got := snap.Bytes(); got != want {
			t.Errorf("Bytes() = %d, the parts and the page table hold %d", got, want)
		}
		perturbed(h).SyncSnapshot(snap)
		check(t, h, snap, false)
		perturbed(h).SyncRestore(snap)
		check(t, h, snap, true)
		h2 := fresh()
		h2.Restore(snap)
		check(t, h2, snap, true)

		cl := perturbed(h).Clone()
		ct, cc := cl.parts()
		for i, p := range tlbs {
			checkCopy(t, ct[i], p)
		}
		for i, p := range caches {
			checkCopy(t, cc[i], p)
		}
	})
}

// TestMemSyncGeometryGuards is the mem counterpart of cpu's
// TestMachineSyncSnapshotGeometryGuards: the one guard behind all four
// entry points of both component types. Only a full Snapshot may meet a
// snapshot of another geometry (it resizes it); Restore — which TLB used
// to truncate silently — and both delta syncs must panic, and a delta sync
// must panic without tracking.
func TestMemSyncGeometryGuards(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", label)
			}
		}()
		f()
	}
	lower := &RAMLevel{RAM: NewRAM(1 << 20), ReadLat: 60}
	cacheOf := func(sets int) *Cache {
		return NewCache(CacheConfig{Name: "C", Sets: sets, Ways: 2, LineBytes: 16, HitLat: 1, AddrBits: 20}, lower)
	}

	small, big := NewTLB("DTLB", 4, 20), NewTLB("DTLB", 8, 20)
	tsnap := small.Snapshot(nil)
	mustPanic("TLB SyncSnapshot without tracking", func() { small.SyncSnapshot(tsnap) })
	mustPanic("TLB SyncRestore without tracking", func() { small.SyncRestore(tsnap) })
	big.BeginDeltaTracking()
	mustPanic("TLB Restore across geometries", func() { big.Restore(tsnap) })
	mustPanic("TLB SyncSnapshot across geometries", func() { big.SyncSnapshot(tsnap) })
	mustPanic("TLB SyncRestore across geometries", func() { big.SyncRestore(tsnap) })
	if big.Snapshot(tsnap); len(tsnap.entries) != 8 {
		t.Errorf("full TLB Snapshot left %d entries in a reused snapshot, want 8", len(tsnap.entries))
	}

	c4, c8 := cacheOf(4), cacheOf(8)
	csnap := c4.Snapshot(nil)
	mustPanic("Cache SyncSnapshot without tracking", func() { c4.SyncSnapshot(csnap) })
	c8.BeginDeltaTracking()
	mustPanic("Cache Restore across geometries", func() { c8.Restore(csnap) })
	mustPanic("Cache SyncSnapshot across geometries", func() { c8.SyncSnapshot(csnap) })
	mustPanic("Cache SyncRestore across geometries", func() { c8.SyncRestore(csnap) })
	if c8.Snapshot(csnap); len(csnap.tags) != len(c8.tags) {
		t.Errorf("full Cache Snapshot left %d tags in a reused snapshot, want %d", len(csnap.tags), len(c8.tags))
	}
}
