package campaign

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/obs"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

func newTestRunner(t *testing.T, cfg cpu.Config, workload string) *Runner {
	t.Helper()
	w, err := prog.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBudgetCapAndOccupancy(t *testing.T) {
	b := NewBudget(3)
	if b.Cap() != 3 || b.InUse() != 0 {
		t.Fatalf("fresh budget: cap %d inUse %d", b.Cap(), b.InUse())
	}
	b.Acquire()
	b.Acquire()
	if b.InUse() != 2 {
		t.Fatalf("inUse = %d after two acquires", b.InUse())
	}
	b.Release()
	b.Release()
	if b.InUse() != 0 {
		t.Fatalf("inUse = %d after release", b.InUse())
	}
	if NewBudget(0).Cap() < 1 {
		t.Error("workers <= 0 must default to at least one CPU")
	}
}

// TestBudgetGaugeRaceFree is the regression test for the stale-gauge race:
// Acquire/Release used to compute n and Set(n) non-atomically, so an
// interleaved release's stale value could overwrite a newer one and leave
// the busy gauge permanently wrong after the budget drained. With atomic
// gauge deltas the final value must be exactly zero under any
// interleaving.
func TestBudgetGaugeRaceFree(t *testing.T) {
	b := NewBudget(4)
	g := &obs.Gauge{}
	b.SetGauge(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Acquire()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Errorf("busy gauge = %v after the budget drained, want exactly 0", v)
	}
	if b.InUse() != 0 {
		t.Errorf("inUse = %d after drain", b.InUse())
	}
}

// TestBudgetCarveCapsShare proves the carve invariants: a carved child can
// never hold more than its own cap of the parent, the parent's capacity
// bounds the sum over children, and draining a child returns every slot to
// both levels.
func TestBudgetCarveCapsShare(t *testing.T) {
	parent := NewBudget(4)
	a := parent.Carve(3)
	if a.Cap() != 3 {
		t.Fatalf("carved cap = %d, want 3", a.Cap())
	}
	if c := parent.Carve(0).Cap(); c != 4 {
		t.Errorf("Carve(0) cap = %d, want full parent capacity 4", c)
	}
	if c := parent.Carve(99).Cap(); c != 4 {
		t.Errorf("Carve(99) cap = %d, want clamped to parent capacity 4", c)
	}
	a.Acquire()
	a.Acquire()
	a.Acquire()
	if a.InUse() != 3 || parent.InUse() != 3 {
		t.Fatalf("after saturating the child: child %d / parent %d in use", a.InUse(), parent.InUse())
	}
	// The fourth child acquire must block (child cap), even though the
	// parent still has a free slot; probe without deadlocking the test.
	acquired := make(chan struct{})
	go func() { a.Acquire(); close(acquired) }()
	select {
	case <-acquired:
		t.Fatal("child acquired past its carved cap")
	case <-time.After(50 * time.Millisecond):
	}
	a.Release()
	<-acquired // the blocked acquire claims the freed slot
	for i := 0; i < 3; i++ {
		a.Release()
	}
	if a.InUse() != 0 || parent.InUse() != 0 {
		t.Errorf("after drain: child %d / parent %d in use", a.InUse(), parent.InUse())
	}
}

// TestBudgetCarveNoStarvation is the fairness acceptance test: with the
// global budget saturated by one tenant's long-running campaign, a second
// tenant's carved budget must still make progress, because the first
// tenant's carve cap leaves at least one global slot unclaimable by it.
func TestBudgetCarveNoStarvation(t *testing.T) {
	global := NewBudget(2)
	big := global.Carve(1)   // the 100k-fault tenant: at most 1 of 2 slots
	small := global.Carve(1) // the cache-miss tenant

	// Tenant "big" saturates its carve and keeps the slot for the whole
	// test — the worst case short of a leak.
	big.Acquire()
	// More queued work from the same tenant blocks on its own carve, not
	// on the global budget.
	blocked := make(chan struct{})
	go func() { big.Acquire(); close(blocked) }()

	// The small tenant must acquire promptly despite the pressure.
	done := make(chan struct{})
	go func() {
		small.Acquire()
		small.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("small tenant starved: big tenant's queued work blocked the global budget")
	}
	select {
	case <-blocked:
		t.Fatal("big tenant exceeded its carved share")
	default:
	}
	big.Release() // unblock the queued acquire so the goroutine exits
	<-blocked
	big.Release()
}

// TestRunCampaignCarvedByteIdentical runs a campaign under a carved tenant
// budget and checks results are byte-identical to a plain serial run —
// chunk geometry follows the carved cap, and geometry never changes
// outcomes.
func TestRunCampaignCarvedByteIdentical(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	faults := r.FaultList("RF", 24, 5)
	serial := r.Run(faults, ModeExhaustive, 0, 1)
	global := NewBudget(4)
	carved := global.Carve(2)
	got, _ := r.RunCampaign(RunSpec{Faults: faults, Mode: ModeExhaustive, Budget: carved})
	if !reflect.DeepEqual(serial, got) {
		t.Error("carved-budget results diverge from serial execution")
	}
	if carved.InUse() != 0 || global.InUse() != 0 {
		t.Errorf("budgets not drained: carved %d global %d", carved.InUse(), global.InUse())
	}
}

// TestRunCampaignSharedBudget drives two campaigns of one runner
// concurrently through a single shared budget and checks both that the
// combined worker count never exceeds the budget and that results are
// byte-identical to plain serial Run calls — the determinism guarantee the
// study scheduler relies on.
func TestRunCampaignSharedBudget(t *testing.T) {
	cfg := cpu.ConfigA72()
	r := newTestRunner(t, cfg, "sha")
	rf := r.FaultList("RF", 40, 3)
	rob := r.FaultList("ROB", 40, 3)

	serialRF := r.Run(rf, ModeExhaustive, 0, 2)
	serialROB := r.Run(rob, ModeExhaustive, 0, 2)

	b := NewBudget(2)
	var concRF, concROB []Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		concRF, _ = r.RunCampaign(RunSpec{Faults: rf, Mode: ModeExhaustive, Budget: b})
	}()
	go func() {
		defer wg.Done()
		concROB, _ = r.RunCampaign(RunSpec{Faults: rob, Mode: ModeExhaustive, Budget: b})
	}()
	wg.Wait()

	if b.InUse() != 0 {
		t.Errorf("budget not drained: %d in use", b.InUse())
	}
	if !reflect.DeepEqual(serialRF, concRF) {
		t.Error("RF results diverge between serial Run and the shared-budget campaign")
	}
	if !reflect.DeepEqual(serialROB, concROB) {
		t.Error("ROB results diverge between serial Run and the shared-budget campaign")
	}
}

// TestMultiBitBoundaryNoWrap is the regression test for the wrap-around
// injection bug: a multi-bit fault whose start bit sits at the very top of
// the array must flip only in-array neighbours (never bit 0), on both the
// 64-bit and 32-bit machine models.
func TestMultiBitBoundaryNoWrap(t *testing.T) {
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		r := newTestRunner(t, cfg, "bitcount")
		for _, structure := range []string{"RF", "ROB", "L1D (Data)"} {
			const width = 4
			bits := r.BitCounts[structure]
			// Generated lists must respect the cap...
			for _, f := range r.MultiBitFaultList(structure, 200, width, 11) {
				if f.Bit+uint64(f.Bits()) > bits {
					t.Fatalf("%s/%s: generated fault %s wraps (array %d bits)",
						cfg.Name, structure, f, bits)
				}
			}
			// ...and the extreme legal placement must inject cleanly.
			top := fault.Fault{
				Structure: structure,
				Bit:       bits - width,
				Cycle:     r.Golden.Cycles / 2,
				Width:     width,
			}
			res := r.Run([]fault.Fault{top}, ModeExhaustive, 0, 1)
			if len(res) != 1 {
				t.Fatalf("%s/%s: boundary fault produced %d results", cfg.Name, structure, len(res))
			}
		}
	}
}

func TestInjectWrappingFaultPanics(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "bitcount")
	bits := r.BitCounts["RF"]
	wrap := fault.Fault{Structure: "RF", Bit: bits - 1, Cycle: 100, Width: 2}
	// Call the injection half directly (not via Run, whose worker
	// goroutine would turn the panic into a process abort).
	m := cpu.New(r.Cfg, r.Prog)
	defer func() {
		if recover() == nil {
			t.Error("injecting a wrapping multi-bit fault must panic")
		}
	}()
	var cmp trace.Comparator
	r.injectAndObserve(m, wrap, ModeExhaustive, 0, &cmp)
}
