package mem

import (
	"slices"
	"unsafe"
)

// DirtySet is the dirty-delta tracker of one array (cursor forks): the rows
// — cache sets, TLB entries, predictor entries — written since the last
// sync point, the moment the array and its snapshot were last made equal.
// While tracking, SyncSnapshot/SyncRestore move only those rows. A set
// belongs to the object that owns the array, not to the state it holds:
// copies leave the destination's alone.
type DirtySet struct {
	on     bool
	rows   []int32 // deduplicated
	marked []bool  // membership of rows
}

// Begin starts tracking an array of n rows from a fresh sync point.
func (d *DirtySet) Begin(n int) {
	if d.marked == nil {
		d.marked = make([]bool, n)
		d.rows = make([]int32, 0, n)
	}
	d.Reset()
	d.on = true
}

// End stops tracking and empties the set.
func (d *DirtySet) End() {
	d.Reset()
	d.on = false
}

// Tracking reports whether the set is between Begin and End.
func (d *DirtySet) Tracking() bool { return d.on }

// Touch records row i as written. A leaf, so that it inlines into the
// access paths that call it on every write.
func (d *DirtySet) Touch(i int) {
	if !d.on || d.marked[i] {
		return
	}
	d.marked[i] = true
	d.rows = append(d.rows, int32(i))
}

// Reset empties the set: a fresh sync point.
func (d *DirtySet) Reset() {
	for _, i := range d.rows {
		d.marked[i] = false
	}
	d.rows = d.rows[:0]
}

// checkSync is the guard every component's sync passes through: a delta
// needs tracking on, and only a full capture may meet (and resize) a
// snapshot of another geometry. Returns the copy's row filter: the touched
// rows for a delta, else nil (everything).
func checkSync(name string, touched *DirtySet, sameGeometry, capture, delta bool) *DirtySet {
	if delta && !touched.on {
		panic("mem: " + name + ": delta sync without tracking")
	}
	if (delta || !capture) && !sameGeometry {
		panic("mem: " + name + ": snapshot of another geometry")
	}
	if delta {
		return touched
	}
	return nil
}

// CopyRows makes *dst equal src in the rows (stride elements each) only
// lists, or — only nil — everywhere, resizing *dst to src's length in place
// when its buffer allows. Returns the bytes moved. Every component's copy
// routine, here and in cpu, moves its arrays through this one primitive,
// but for the sets a chained cache snapshot holds apart (see cacheSnap).
func CopyRows[T any](dst *[]T, src []T, only *DirtySet, stride int) uint64 {
	var elem T
	size := uint64(unsafe.Sizeof(elem))
	if only == nil {
		*dst = append((*dst)[:0], src...)
		return uint64(len(src)) * size
	}
	d := *dst
	for _, r := range only.rows {
		if stride == 1 {
			d[r] = src[r]
			continue
		}
		lo := int(r) * stride
		copy(d[lo:lo+stride], src[lo:lo+stride])
	}
	return uint64(len(only.rows)*stride) * size
}

// ShareRows is CopyRows for a chained capture into an empty *dst, prev
// being the capture at the last sync point: *dst is prev's array, shared,
// when src holds the same rows — only the rows touched lists can differ,
// or with touched nil any — else a copy of src in fresh storage of src's
// capacity. touched restarts empty. Returns the bytes copied.
func ShareRows[T comparable](dst *[]T, src, prev []T, touched *DirtySet) uint64 {
	same := len(src) == len(prev)
	if touched == nil {
		same = same && slices.Equal(src, prev)
	} else {
		for _, r := range touched.rows {
			same = same && src[r] == prev[r]
		}
		touched.Reset()
	}
	if same {
		*dst = prev
		return 0
	}
	*dst = make([]T, 0, cap(src))
	return CopyRows(dst, src, nil, 1)
}
