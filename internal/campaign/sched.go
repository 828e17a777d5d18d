package campaign

import (
	"runtime"
	"sync/atomic"

	"avgi/internal/obs"
)

// Budget is a study-wide worker pool: a counting semaphore shared by every
// campaign executing under one Study, so the number of live campaign
// workers across all concurrent campaigns never exceeds the machine's
// capacity. A campaign draining its tail releases slots that a queued
// campaign's head picks up immediately — that cross-campaign handoff is
// what keeps every core busy over a multi-pair study instead of idling
// between pairs (the paper's 726k-injection evaluation is throughput-bound
// on exactly this).
//
// A Budget is safe for concurrent use. Acquisition order between campaigns
// is not deterministic, but campaign results never depend on it: each
// worker owns a fixed contiguous chunk of the fault list, so results are
// byte-identical to a serial run regardless of scheduling.
type Budget struct {
	slots chan struct{}
	inUse atomic.Int64

	// parent, when non-nil, makes this budget a carved slice of a larger
	// one: every slot held here also holds a slot of the parent, so the
	// parent's global capacity bounds the sum of all carved children while
	// each child's own capacity caps one tenant's share (see Carve).
	parent *Budget

	// busy tracks live occupancy as a gauge (set by the owning study; see
	// Study scheduler metrics in docs/SCHEDULING.md); nil records nothing.
	busy *obs.Gauge
}

// NewBudget returns a budget of the given worker count; workers <= 0 uses
// all CPUs.
func NewBudget(workers int) *Budget {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Budget{slots: make(chan struct{}, workers)}
}

// Cap returns the budget's total worker count.
func (b *Budget) Cap() int { return cap(b.slots) }

// Carve returns a child budget of at most max workers drawing from b: a
// worker acquired from the child holds one child slot and one parent slot,
// so the child can never occupy more than max of the parent's capacity no
// matter how much work is queued on it. This is the per-tenant fairness
// primitive of the assessment service (docs/SERVICE.md): give each tenant
// a carved budget with max < b.Cap() and a tenant saturating its own slice
// still leaves parent slots that other tenants' requests can claim — one
// tenant's 100k-fault campaign cannot starve another's cache miss.
//
// max <= 0 or max > b.Cap() carves the full parent capacity (no per-child
// cap beyond the shared one). Carving from a carved budget chains: the
// acquire walks every ancestor.
func (b *Budget) Carve(max int) *Budget {
	if max <= 0 || max > b.Cap() {
		max = b.Cap()
	}
	return &Budget{slots: make(chan struct{}, max), parent: b}
}

// InUse returns the number of currently acquired workers.
func (b *Budget) InUse() int { return int(b.inUse.Load()) }

// SetGauge attaches an occupancy gauge updated on every acquire/release.
// Call before the budget is shared between goroutines.
func (b *Budget) SetGauge(g *obs.Gauge) { b.busy = g }

// Acquire blocks until a worker slot is free in this budget and every
// ancestor it was carved from, and claims them all. Child slots are taken
// before parent slots so a tenant at its own cap queues on itself without
// holding shared capacity hostage while it waits.
func (b *Budget) Acquire() {
	b.slots <- struct{}{}
	if b.parent != nil {
		b.parent.Acquire()
	}
	b.inUse.Add(1)
	// Gauge.Add (atomic delta) rather than Set(inUse): computing n and
	// setting the gauge non-atomically lets an interleaved release's stale
	// n overwrite a newer value, leaving the gauge permanently wrong once
	// the budget drains.
	b.busy.Add(1)
}

// Release returns a worker slot to the pool (and to every ancestor of a
// carved budget).
func (b *Budget) Release() {
	if b.parent != nil {
		b.parent.Release()
	}
	<-b.slots
	b.inUse.Add(-1)
	b.busy.Add(-1)
}
