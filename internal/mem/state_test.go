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
	a0, b0 := a.Pointer(), b.Pointer()
	return a0 < b0+uintptr(b.Cap())*b.Type().Elem().Size() && b0 < a0+uintptr(a.Cap())*a.Type().Elem().Size()
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

// flatten reassembles a cache snapshot, set by set, into the live layout,
// so that a snapshot compares with a cache as a cache does.
func flatten(t *testing.T, c *Cache, snap *cacheSnap) *cacheState {
	t.Helper()
	st := &cacheState{cacheScalars: snap.cacheScalars}
	flat := reflect.ValueOf(st).Elem()
	for set := 0; set < c.cfg.Sets; set++ {
		rows := snap.row(c, set)
		row := reflect.ValueOf(&rows).Elem()
		for i := 0; i < row.NumField(); i++ {
			name := row.Type().Field(i).Name
			f := flat.FieldByName(name)
			writable(f).Set(reflect.AppendSlice(writable(f), writable(row.Field(i))))
		}
	}
	return st
}

// checkCacheCopy is checkCopy across a cache's two layouts: the live arrays
// and a snapshot's rows, its base's or, chained, its own sets'. Every
// memory-sharing field of the cache — found by reflection, as in checkCopy
// — is named in nonState or is an array of cacheSet, the rows a snapshot
// holds; no row may share a buffer with the live arrays; flattened, the
// rows must equal them field by field; and a write to the side copied from
// (the cache, or with toCache the snapshot) must not reach the other.
// Returns the bytes of the rows.
func checkCacheCopy(t *testing.T, c *Cache, snap *cacheSnap, toCache bool) (rowBytes uint64) {
	t.Helper()
	live, rowFields := refFields(c), refFields(&cacheSet{})
	for name, f := range live {
		if nonState[strings.Split(name, ".")[0]] {
			continue
		}
		if f.Kind() != reflect.Slice {
			t.Errorf("%s: a %s is neither copyable state nor named in nonState", name, f.Kind())
		} else if _, ok := rowFields[name]; !ok {
			t.Errorf("%s: not copied", name)
		}
	}
	for set := 0; set < c.cfg.Sets; set++ {
		rows := snap.row(c, set)
		for name, f := range refFields(&rows) {
			rowBytes += uint64(f.Len()) * uint64(f.Type().Elem().Size())
			for lname, l := range live {
				if l.Kind() == reflect.Slice && overlaps(f, l) {
					t.Errorf("set %d: %s shares the cache's %s array", set, name, lname)
				}
			}
		}
	}
	equal := func(label string, want *cacheState) {
		t.Helper()
		if !reflect.DeepEqual(&c.cacheState, want) {
			t.Errorf("%s: the cache and the snapshot's rows differ", label)
		}
	}
	flat := flatten(t, c, snap)
	equal("after the copy", flat)
	if toCache {
		rows := snap.row(c, 0)
		row := reflect.ValueOf(&rows).Elem()
		for i := 0; i < row.NumField(); i++ {
			perturb(row.Field(i).Index(0))
		}
		equal("after a write to the snapshot", flat)
		return rowBytes
	}
	for name, f := range live {
		if f.Kind() == reflect.Slice && !nonState[strings.Split(name, ".")[0]] {
			perturb(f.Index(0))
		}
	}
	if !reflect.DeepEqual(flatten(t, c, snap), flat) {
		t.Error("the snapshot changed when the cache was written")
	}
	return rowBytes
}

// component is the copy surface Cache (over cacheSnap) and TLB (over
// tlbState) share.
type component[S any] interface {
	sync(snap *S, capture, delta bool) uint64
	chain(snap, prev *S) uint64
	BeginDeltaTracking()
}

// checkComponent runs the five directions of one component type's copy —
// capture or rewind, whole or delta, and the chained capture — each on
// perturbed state, through check (toC: the component is the destination).
// The subtests carry the hierarchy-level names of the five.
func checkComponent[S any, C component[S]](t *testing.T, fresh func() C, touched func(C) *DirtySet,
	check func(t *testing.T, c C, snap *S, toC bool) uint64) {
	perturbed := func(c C) C {
		perturbState(c, touched(c))
		return c
	}
	t.Run("Snapshot", func(t *testing.T) {
		c := perturbed(fresh())
		var snap S
		if got, want := c.sync(&snap, true, false), check(t, c, &snap, false); got != want {
			t.Errorf("sync moved %d bytes, the snapshot holds %d", got, want)
		}
	})
	t.Run("Restore", func(t *testing.T) {
		var snap S
		perturbed(fresh()).sync(&snap, true, false)
		c := fresh()
		c.sync(&snap, false, false)
		check(t, c, &snap, true)
	})
	t.Run("SyncSnapshot", func(t *testing.T) {
		c := fresh()
		c.BeginDeltaTracking()
		var snap S
		c.sync(&snap, true, false)
		perturbed(c).sync(&snap, true, true)
		check(t, c, &snap, false)
	})
	t.Run("SyncRestore", func(t *testing.T) {
		c := perturbed(fresh())
		c.BeginDeltaTracking()
		var snap S
		c.sync(&snap, true, false)
		perturbed(c).sync(&snap, false, true)
		check(t, c, &snap, true)
	})
	t.Run("SnapshotAfter", func(t *testing.T) {
		c := fresh()
		c.BeginDeltaTracking()
		var prev, snap, next S
		c.sync(&prev, true, false)
		perturbed(c).chain(&snap, &prev)
		// next shares all of snap: the rows snap copied and those it shares
		// with prev.
		if n := c.chain(&next, &snap); n != 0 {
			t.Errorf("a chained capture of an untouched component owns %d bytes", n)
		}
		check(t, c, &next, false)
	})
}

// TestMemCopySharesNoBuffers is the guard on the state lists of internal/mem
// — cacheSet's capture and restore, tlbState.copyFrom and Hierarchy.parts —
// in the style of cpu's TestCoreCopySharesNoBuffers. A slice added to Cache
// or TLB that its copy routine does not copy fails here by name; so does a
// pointer or map that is not declared non-state.
func TestMemCopySharesNoBuffers(t *testing.T) {
	// The copies move the arrays by name and everything else by assigning
	// the embedded scalars struct, so a state struct may hold nothing else,
	// and a cache's arrays are a cacheSet, the rows a snapshot holds.
	for _, typ := range []reflect.Type{reflect.TypeOf(cacheState{}), reflect.TypeOf(tlbState{}), reflect.TypeOf(cacheSet{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() != reflect.Slice && !f.Anonymous {
				t.Errorf("%s.%s: not an array, so the copies carry it only from inside the embedded scalars struct", typ.Name(), f.Name)
			}
		}
	}
	if typ := reflect.TypeOf(cacheState{}); typ.NumField() != 2 {
		t.Errorf("cacheState has %d fields; a cache's state is its arrays (a cacheSet) and its scalars", typ.NumField())
	}
	if typ := reflect.TypeOf(cacheSnap{}); typ.NumField() != 3 {
		t.Errorf("cacheSnap has %d fields; a snapshot holds a cache as its base, the sets over it and its scalars", typ.NumField())
	}
	tlbCheck := func(t *testing.T, tl *TLB, snap *tlbState, toTLB bool) uint64 {
		t.Helper()
		if toTLB {
			return checkCopy(t, tl, snap)
		}
		return checkCopy(t, snap, tl)
	}
	t.Run("Cache", func(t *testing.T) {
		checkComponent(t,
			func() *Cache { c, _ := newTestCacheOverRAM(10); return c },
			func(c *Cache) *DirtySet { return &c.touched }, checkCacheCopy)
	})
	t.Run("TLB", func(t *testing.T) {
		checkComponent(t,
			func() *TLB { return NewTLB("DTLB", 8, 20) },
			func(t *TLB) *DirtySet { return &t.touched }, tlbCheck)
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
			for i := range tlbs {
				n += tlbCheck(t, tlbs[i], &snap.tlbs[i], toHier)
			}
			for i := range caches {
				n += checkCacheCopy(t, caches[i], &snap.caches[i], toHier)
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
		want := check(t, h, snap, false) + uint64(unsafe.Sizeof(RAM{})) + uint64(len(snap.ram.pages))*25
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
		chained := perturbed(h).SnapshotAfter(snap)
		check(t, h, chained, false)
		h3 := fresh()
		h3.Restore(chained)
		check(t, h3, chained, true)
		perturbed(h3).SyncRestore(chained)
		check(t, h3, chained, true)
	})
}

// TestMemSyncGeometryGuards is the mem counterpart of cpu's
// TestMachineSyncSnapshotGeometryGuards: the one guard behind all four
// directions of both component types' sync. Only a full capture may meet a
// snapshot of another geometry (it resizes it); a full rewind — which TLB
// used to truncate silently — and both delta syncs must panic, and a delta
// sync must panic without tracking. So must the misuses of a chain.
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
	var csnap cacheSnap
	c4.sync(&csnap, true, false)
	mustPanic("Cache delta capture without tracking", func() { c4.sync(&csnap, true, true) })
	c8.BeginDeltaTracking()
	mustPanic("Cache full rewind across geometries", func() { c8.sync(&csnap, false, false) })
	mustPanic("Cache delta capture across geometries", func() { c8.sync(&csnap, true, true) })
	mustPanic("Cache delta rewind across geometries", func() { c8.sync(&csnap, false, true) })
	if c8.sync(&csnap, true, false); len(csnap.base.tags) != len(c8.tags) {
		t.Errorf("full Cache capture left %d tags in a reused snapshot, want %d", len(csnap.base.tags), len(c8.tags))
	}

	// A chain shares storage, so neither end of a link is captured into
	// again, and a link needs the tracking that says what it may share.
	h := NewHierarchy(testConfig())
	first := h.Snapshot(nil)
	mustPanic("SnapshotAfter without tracking", func() { h.SnapshotAfter(first) })
	h.BeginDeltaTracking()
	first = h.Snapshot(nil)
	next := h.SnapshotAfter(first)
	mustPanic("full capture into a chain's predecessor", func() { h.Snapshot(first) })
	mustPanic("delta capture into a chained snapshot", func() { h.SyncSnapshot(next) })
}
