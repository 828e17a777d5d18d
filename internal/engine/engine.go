// Package engine is the deterministic event/tick engine the machine models
// run on — the component/tick/event core of gem5-class simulators (and of
// mgpusim/akita in Go), scaled down to this reproduction's needs.
//
// The engine is strictly serial and strictly deterministic:
//
//   - Components register once, up front; ticking components are ticked
//     every cycle in registration order. A multi-core machine registers its
//     cores in index order, so core 0 always observes shared state (the L2,
//     RAM) before core 1 within a cycle — the fixed arbitration order.
//   - Discrete events are fired in (cycle, schedule-order) order: two
//     events scheduled for the same cycle fire in the order they were
//     scheduled, never in map/heap-dependent order.
//
// Those two rules are what make the determinism acceptance gate possible:
// building the same machine twice and running both must produce identical
// final cycle counts, commit counts and outputs, byte for byte (see the
// mgpusim acceptance tests in SNIPPETS.md for the idiom this ports).
//
// The engine holds no machine state: checkpointing is the machines' own
// Snapshot/Restore (internal/cpu, internal/mem), and every Run builds a
// fresh engine.
package engine

import "fmt"

// Component is anything that lives on the engine: a core, a cache, a TLB,
// an arbiter. The only universal requirement is a stable name (used by
// telemetry and error messages).
type Component interface {
	Name() string
}

// Ticker is a component driven by the clock: Tick is called exactly once
// per engine cycle, in registration order. cycle is the number of the cycle
// being executed (the first RunCycle call delivers cycle 1).
type Ticker interface {
	Component
	Tick(cycle uint64)
}

// Handler is an event callback. It runs at the cycle the event was
// scheduled for, before that cycle's ticks.
type Handler func(cycle uint64)

// event is one scheduled callback. seq breaks ties between events scheduled
// for the same cycle: earlier scheduling fires first.
type event struct {
	at  uint64
	seq uint64
	fn  Handler
}

// Stats is a snapshot of the engine's activity counters, consumed by the
// telemetry layer (see obs.PublishEngineStats).
type Stats struct {
	// Cycles is the number of RunCycle calls executed.
	Cycles uint64
	// Events is the number of discrete events fired.
	Events uint64
	// Components holds one entry per registered component, in registration
	// order.
	Components []ComponentStats
}

// ComponentStats is one component's activity: Ticks counts Tick calls
// delivered (zero for non-ticking components).
type ComponentStats struct {
	Name  string
	Ticks uint64
}

// Engine is the serial scheduler. It is not safe for concurrent use; every
// machine (or cluster) owns its own engine, which is what lets thousands of
// campaign workers run engines in parallel without sharing.
type Engine struct {
	now uint64
	seq uint64

	// queue is a binary min-heap of pending events ordered by (at, seq).
	queue []event

	components []Component
	tickers    []Ticker

	events uint64
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	return &Engine{}
}

// Register adds a component to the engine. Registration order is the
// deterministic tie-break everywhere: tick order and the arbitration order
// of same-cycle activity. Registering after the first RunCycle is a
// programming error.
func (e *Engine) Register(c Component) {
	if e.now != 0 {
		panic(fmt.Sprintf("engine: component %s registered after cycle %d", c.Name(), e.now))
	}
	e.components = append(e.components, c)
	if t, ok := c.(Ticker); ok {
		e.tickers = append(e.tickers, t)
	}
}

// Now returns the current cycle (the cycle most recently executed).
func (e *Engine) Now() uint64 { return e.now }

// Schedule enqueues fn to run at cycle at. Events scheduled for the current
// cycle or earlier fire at the start of the next RunCycle (the engine never
// re-runs a cycle). Same-cycle events fire in scheduling order.
func (e *Engine) Schedule(at uint64, fn Handler) {
	ev := event{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.queue = append(e.queue, ev)
	e.up(len(e.queue) - 1)
}

// ScheduleDelta enqueues fn to run delta cycles after the current cycle.
func (e *Engine) ScheduleDelta(delta uint64, fn Handler) {
	e.Schedule(e.now+delta, fn)
}

// RunCycle advances the clock one cycle: due events fire first (in (cycle,
// schedule-order) order), then every ticking component ticks in
// registration order. This mirrors the pre-engine machine loop, where a
// cycle's memory responses were visible to the stages ticked in that cycle.
func (e *Engine) RunCycle() {
	e.now++
	for len(e.queue) > 0 && e.queue[0].at <= e.now {
		fn := e.queue[0].fn
		e.pop()
		e.events++
		fn(e.now)
	}
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// Components returns the registered components in registration order.
func (e *Engine) Components() []Component { return e.components }

// Stats returns the engine's activity counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Cycles:     e.now,
		Events:     e.events,
		Components: make([]ComponentStats, len(e.components)),
	}
	for i, c := range e.components {
		// Every ticker ticks exactly once per RunCycle (the component set
		// is frozen at start), so per-component tick counts are derived
		// rather than counted in the hot loop.
		var ticks uint64
		if _, ok := c.(Ticker); ok {
			ticks = e.now
		}
		st.Components[i] = ComponentStats{Name: c.Name(), Ticks: ticks}
	}
	return st
}

// heap helpers: a hand-rolled binary heap over (at, seq) keeps the hot
// RunCycle path free of interface calls and container/heap allocations.

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			return
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

func (e *Engine) pop() {
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = event{}
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0)
	}
}

func (e *Engine) down(i int) {
	n := len(e.queue)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.less(l, smallest) {
			smallest = l
		}
		if r < n && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		e.queue[i], e.queue[smallest] = e.queue[smallest], e.queue[i]
		i = smallest
	}
}
