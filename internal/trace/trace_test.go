package trace

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

func r(cycle, pc uint64, word uint32, val uint64) Record {
	return Record{Cycle: cycle, PC: pc, Word: word, HasDest: true, Dest: 1, Value: val}
}

func TestRecordSame(t *testing.T) {
	a := r(1, 0x1000, 7, 42)
	if !a.Same(a) {
		t.Error("identical records differ")
	}
	b := a
	b.Cycle = 2
	if a.Same(b) {
		t.Error("cycle difference ignored by Same")
	}
	if !a.SameIgnoringCycle(b) {
		t.Error("SameIgnoringCycle should ignore cycle")
	}
	c := a
	c.Value = 43
	if a.SameIgnoringCycle(c) {
		t.Error("value difference ignored")
	}
}

// TestRecordSize: a golden trace holds one record per commit, so a field
// added to Record goes in without padding or every trace grows by a fifth.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 40 {
		t.Errorf("Record is %d bytes, want 40", got)
	}
}

// recordsSink keeps Records' result on the heap in the allocation counts.
var recordsSink []Record

// TestCaptureCollects: Len and Records return the whole trace in commit
// order at every block boundary, in one allocation of exact size that a
// later capture into the same blocks leaves untouched.
func TestCaptureCollects(t *testing.T) {
	for _, n := range []int{0, 1, captureBlock - 1, captureBlock, captureBlock + 1, 3*captureBlock + 7} {
		in := golden(n)
		var c Capture
		for round := 0; round < 2; round++ {
			c.Reset()
			for _, rec := range in {
				if !c.OnCommit(rec) {
					t.Fatal("capture stopped")
				}
			}
			if c.Len() != n {
				t.Fatalf("%d records, round %d: Len = %d", n, round, c.Len())
			}
			got := c.Records()
			if len(got) != n || cap(got) != n || !slices.Equal(got, in) {
				t.Fatalf("%d records, round %d: Records has len %d cap %d or differs from the input",
					n, round, len(got), cap(got))
			}
		}
		want := 0.0
		if n > 0 {
			want = 1
		}
		if allocs := testing.AllocsPerRun(2, func() { recordsSink = c.Records() }); allocs != want {
			t.Errorf("%d records: Records allocated %v times, want %v", n, allocs, want)
		}
		if got := c.Records(); n > 0 {
			c.Reset()
			c.OnCommit(Record{})
			if got[0] != in[0] {
				t.Errorf("%d records: Records shares storage with the capture", n)
			}
		}
	}
	recordsSink = nil
}

// TestAllocCaptureCopiedOnce: a capture fills fixed blocks, so a long trace
// allocates its own size plus at most one block (the block list's growth)
// and copies nothing, and Reset keeps the blocks for the next run.
func TestAllocCaptureCopiedOnce(t *testing.T) {
	const n = 1 << 20
	in := golden(n)
	var c Capture
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range in {
		c.OnCommit(rec)
	}
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(Record{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, (n+captureBlock)*size; got > limit {
		t.Errorf("capturing %d records allocated %d bytes, want <= %d", n, got, limit)
	}
	if c.Len() != n || !slices.Equal(c.Records(), in) {
		t.Fatal("captured records differ from the input")
	}

	// The count is process-wide, and reading it stops and restarts the
	// world: on a loaded host that itself allocated — a sudog while waiting
	// out a GC cycle the first capture left running, an OS thread's m and g
	// structs when the restart woke an idle P. Finish that cycle first, and
	// count under AllocsPerRun, whose one P leaves the restart nothing to
	// wake. Its warm-up call is a third capture into the same blocks.
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() {
		c.Reset()
		for _, rec := range in {
			c.OnCommit(rec)
		}
	})
	if allocs != 0 || c.Len() != n || !slices.Equal(c.Records(), in) {
		t.Errorf("second capture after Reset allocated %v times (want 0) or differs from the input", allocs)
	}
}

func golden(n int) []Record {
	g := make([]Record, n)
	for i := range g {
		g[i] = r(uint64(10+i), uint64(0x1000+4*i), uint32(i), uint64(i))
	}
	return g
}

func TestComparatorNoDeviation(t *testing.T) {
	g := golden(10)
	c := &Comparator{Golden: g}
	for _, rec := range g {
		if !c.OnCommit(rec) {
			t.Fatal("stopped without deviation")
		}
	}
	if c.Dev.Kind != DevNone || c.Commits() != 10 || c.Stopped() {
		t.Errorf("dev=%v commits=%d stopped=%v", c.Dev.Kind, c.Commits(), c.Stopped())
	}
}

func TestComparatorRecordDeviation(t *testing.T) {
	g := golden(10)
	c := &Comparator{Golden: g, StopAtFirst: true}
	c.OnCommit(g[0])
	bad := g[1]
	bad.Value = 999
	if c.OnCommit(bad) {
		t.Error("should stop at first deviation")
	}
	if c.Dev.Kind != DevRecord || c.Dev.Index != 1 {
		t.Errorf("dev %+v", c.Dev)
	}
	if !c.Stopped() {
		t.Error("Stopped should be true")
	}
}

func TestComparatorCycleDeviation(t *testing.T) {
	g := golden(10)
	c := &Comparator{Golden: g}
	c.OnCommit(g[0])
	late := g[1]
	late.Cycle += 7
	if !c.OnCommit(late) {
		t.Error("non-stopping comparator should continue")
	}
	if c.Dev.Kind != DevCycle {
		t.Errorf("dev %v", c.Dev.Kind)
	}
	// Only the first deviation is recorded.
	worse := g[2]
	worse.PC = 0xDEAD
	c.OnCommit(worse)
	if c.Dev.Kind != DevCycle || c.Dev.Index != 1 {
		t.Errorf("first deviation overwritten: %+v", c.Dev)
	}
}

func TestComparatorExtraCommits(t *testing.T) {
	g := golden(2)
	c := &Comparator{Golden: g}
	c.OnCommit(g[0])
	c.OnCommit(g[1])
	c.OnCommit(r(99, 0x2000, 5, 5))
	if c.Dev.Kind != DevExtra || c.Dev.Index != 2 {
		t.Errorf("dev %+v", c.Dev)
	}
}

func TestComparatorStopCycle(t *testing.T) {
	g := golden(100)
	c := &Comparator{Golden: g, StopCycle: 15}
	i := 0
	for ; i < 100; i++ {
		if !c.OnCommit(g[i]) {
			break
		}
	}
	if !c.Stopped() {
		t.Fatal("never stopped")
	}
	// Records have cycles 10, 11, ...; stop fires at cycle >= 15.
	if g[i].Cycle < 15 {
		t.Errorf("stopped too early at cycle %d", g[i].Cycle)
	}
	if c.Dev.Kind != DevNone {
		t.Error("stop-cycle must not be a deviation")
	}
}

func TestComparatorStartAt(t *testing.T) {
	g := golden(10)
	c := &Comparator{Golden: g}
	c.StartAt(4)
	for _, rec := range g[4:] {
		c.OnCommit(rec)
	}
	if c.Dev.Kind != DevNone {
		t.Errorf("resumed comparator deviated: %+v", c.Dev)
	}
	if c.Commits() != 10 {
		t.Errorf("commits = %d", c.Commits())
	}
}

// TestComparatorWindowBoundary pins the ERT-window boundary semantics: the
// observation window is [inject, StopCycle] inclusive. A deviation
// committing exactly at StopCycle is a deviation — even when a matching
// commit of the same cycle precedes it in the stream (the superscalar
// multi-commit cycle that the old post-classification >= stop cut short) —
// and a deviation strictly after StopCycle is out of window: the run ends
// clean without the record ever being examined.
func TestComparatorWindowBoundary(t *testing.T) {
	// Golden commits two records in cycle 20 (superscalar pair), then one
	// in 21.
	g := []Record{
		r(20, 0x1000, 1, 1),
		r(20, 0x1004, 2, 2),
		r(21, 0x1008, 3, 3),
	}

	t.Run("deviation at expiry cycle behind a match", func(t *testing.T) {
		c := &Comparator{Golden: g, StopAtFirst: true, StopCycle: 20}
		if !c.OnCommit(g[0]) {
			t.Fatal("stopped on the matching first commit of the boundary cycle")
		}
		bad := g[1]
		bad.Value = 99
		if c.OnCommit(bad) {
			t.Fatal("deviating commit at StopCycle not stopped")
		}
		if c.Dev.Kind != DevRecord || c.Dev.Cycle != 20 {
			t.Fatalf("dev %+v, want DevRecord at cycle 20", c.Dev)
		}
	})

	t.Run("deviation one past expiry is out of window", func(t *testing.T) {
		c := &Comparator{Golden: g, StopAtFirst: true, StopCycle: 20}
		c.OnCommit(g[0])
		c.OnCommit(g[1])
		bad := g[2] // cycle 21 > StopCycle
		bad.Value = 99
		if c.OnCommit(bad) {
			t.Fatal("commit past the window must stop the run")
		}
		if c.Dev.Kind != DevNone {
			t.Fatalf("out-of-window commit classified: %+v", c.Dev)
		}
		if !c.Stopped() {
			t.Fatal("not marked stopped")
		}
	})

	t.Run("deviation inside window still wins", func(t *testing.T) {
		c := &Comparator{Golden: g, StopAtFirst: true, StopCycle: 21}
		bad := g[0]
		bad.Value = 99
		if c.OnCommit(bad) {
			t.Fatal("in-window deviation not stopped")
		}
		if c.Dev.Kind != DevRecord {
			t.Fatalf("dev %+v", c.Dev)
		}
	})
}

// TestSame8MatchesFieldEquality drives the word-stride fast path against
// the field-granular Same across every single-field mutation, so the
// packed lanes can never silently drop a field.
func TestSame8MatchesFieldEquality(t *testing.T) {
	base := Record{Cycle: 7, PC: 0x1000, Word: 0xdeadbeef, HasDest: true,
		Dest: 13, Value: 42, IsStore: true, Addr: 0x2000}
	muts := []func(*Record){
		func(r *Record) { r.Cycle++ },
		func(r *Record) { r.PC++ },
		func(r *Record) { r.Word++ },
		func(r *Record) { r.HasDest = false },
		func(r *Record) { r.Dest++ },
		func(r *Record) { r.Value++ },
		func(r *Record) { r.IsStore = false },
		func(r *Record) { r.Addr++ },
	}
	if b := base; !b.same8(&base) {
		t.Fatal("identical records not same8")
	}
	for i, mut := range muts {
		m := base
		mut(&m)
		if m.same8(&base) {
			t.Errorf("mutation %d invisible to same8", i)
		}
		if m.Same(base) {
			t.Errorf("mutation %d invisible to Same", i)
		}
	}
}

// BenchmarkComparatorMatch measures the all-matching hot path of the
// commit comparator — the cost every committed instruction of every
// faulty run pays.
func BenchmarkComparatorMatch(b *testing.B) {
	g := golden(4096)
	c := &Comparator{Golden: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		for j := range g {
			c.OnCommit(g[j])
		}
	}
}
