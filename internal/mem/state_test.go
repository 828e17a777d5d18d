package mem

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// nonState names the fields of Cache and TLB that belong to the component
// object, not to the state it holds: a copy leaves the destination's alone
// (a capture has none of them).
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

// component is the copy surface Cache (over cacheState) and TLB (over
// tlbState) share.
type component[S any] interface {
	sync(snap *S, capture, delta bool) uint64
	BeginDeltaTracking()
}

// checkComponent runs the four directions of one component type's sync —
// capture or rewind, whole or delta — each on perturbed state, through
// checkCopy. The subtests carry the hierarchy-level names of the four.
func checkComponent[S any, C component[S]](t *testing.T, fresh func() C, touched func(C) *DirtySet) {
	perturbed := func(c C) C {
		perturbState(c, touched(c))
		return c
	}
	t.Run("Snapshot", func(t *testing.T) {
		c := perturbed(fresh())
		var snap S
		if got, want := c.sync(&snap, true, false), checkCopy(t, &snap, c); got != want {
			t.Errorf("sync moved %d bytes, the state arrays hold %d", got, want)
		}
	})
	t.Run("Restore", func(t *testing.T) {
		var snap S
		perturbed(fresh()).sync(&snap, true, false)
		c := fresh()
		c.sync(&snap, false, false)
		checkCopy(t, c, &snap)
	})
	t.Run("SyncSnapshot", func(t *testing.T) {
		c := fresh()
		c.BeginDeltaTracking()
		var snap S
		c.sync(&snap, true, false)
		perturbed(c).sync(&snap, true, true)
		checkCopy(t, &snap, c)
	})
	t.Run("SyncRestore", func(t *testing.T) {
		c := perturbed(fresh())
		c.BeginDeltaTracking()
		var snap S
		c.sync(&snap, true, false)
		perturbed(c).sync(&snap, false, true)
		checkCopy(t, c, &snap)
	})
}

// TestMemCopySharesNoBuffers is the guard on the state lists of internal/mem
// — cacheState.copyFrom, tlbState.copyFrom and Hierarchy.parts — in the
// style of cpu's TestCoreCopySharesNoBuffers. A slice added to Cache or TLB
// that its copy routine does not copy fails here by name; so does a pointer
// or map that is not declared non-state.
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
		checkComponent[cacheState](t,
			func() *Cache { c, _ := newTestCacheOverRAM(10); return c },
			func(c *Cache) *DirtySet { return &c.touched })
	})
	t.Run("TLB", func(t *testing.T) {
		checkComponent[tlbState](t,
			func() *TLB { return NewTLB("DTLB", 8, 20) },
			func(t *TLB) *DirtySet { return &t.touched })
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
	})
}

// TestMemSyncGeometryGuards is the mem counterpart of cpu's
// TestMachineSyncSnapshotGeometryGuards: the one guard behind all four
// directions of both component types' sync. Only a full capture may meet a
// snapshot of another geometry (it resizes it); a full rewind — which TLB
// used to truncate silently — and both delta syncs must panic, and a delta
// sync must panic without tracking.
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
	var tsnap tlbState
	small.sync(&tsnap, true, false)
	mustPanic("TLB delta capture without tracking", func() { small.sync(&tsnap, true, true) })
	mustPanic("TLB delta rewind without tracking", func() { small.sync(&tsnap, false, true) })
	big.BeginDeltaTracking()
	mustPanic("TLB full rewind across geometries", func() { big.sync(&tsnap, false, false) })
	mustPanic("TLB delta capture across geometries", func() { big.sync(&tsnap, true, true) })
	mustPanic("TLB delta rewind across geometries", func() { big.sync(&tsnap, false, true) })
	if big.sync(&tsnap, true, false); len(tsnap.entries) != 8 {
		t.Errorf("full TLB capture left %d entries in a reused snapshot, want 8", len(tsnap.entries))
	}

	c4, c8 := cacheOf(4), cacheOf(8)
	var csnap cacheState
	c4.sync(&csnap, true, false)
	mustPanic("Cache delta capture without tracking", func() { c4.sync(&csnap, true, true) })
	c8.BeginDeltaTracking()
	mustPanic("Cache full rewind across geometries", func() { c8.sync(&csnap, false, false) })
	mustPanic("Cache delta capture across geometries", func() { c8.sync(&csnap, true, true) })
	mustPanic("Cache delta rewind across geometries", func() { c8.sync(&csnap, false, true) })
	if c8.sync(&csnap, true, false); len(csnap.tags) != len(c8.tags) {
		t.Errorf("full Cache capture left %d tags in a reused snapshot, want %d", len(csnap.tags), len(c8.tags))
	}
}
