// Package engine is the deterministic tick engine the machine models run
// on: a clock and an ordered list of components, nothing else.
//
// The engine is strictly serial and strictly deterministic:
//
//   - Components are ticked once per cycle in registration order. A
//     multi-core machine registers its cores in index order, so core 0
//     always observes shared state (the L2, RAM) before core 1 within a
//     cycle — the fixed arbitration order.
//   - The component set is frozen at the first RunCycle.
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

// Ticker is a component driven by the clock: Tick is called exactly once
// per engine cycle, in registration order. cycle is the number of the cycle
// being executed (the first RunCycle call delivers cycle 1). Name must be
// stable; telemetry and error messages use it.
type Ticker interface {
	Name() string
	Tick(cycle uint64)
}

// Stats is a snapshot of the engine's activity counters, carried out of a
// run as cpu.Result.Engine for the benchmark.
type Stats struct {
	// Cycles is the number of RunCycle calls executed.
	Cycles uint64
	// Events is always 0, kept until the benchmark stops reading it.
	Events uint64
	// Components holds one entry per registered component, in registration
	// order.
	Components []ComponentStats
}

// ComponentStats is one component's activity: Ticks counts Tick calls
// delivered.
type ComponentStats struct {
	Name  string
	Ticks uint64
}

// Engine is the serial clock. It is not safe for concurrent use; every
// machine (or cluster) owns its own engine, which is what lets thousands of
// campaign workers run engines in parallel without sharing.
type Engine struct {
	now     uint64
	tickers []Ticker
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	return &Engine{}
}

// Register adds a component to the engine. Registration order is the
// deterministic tie-break everywhere: tick order and the arbitration order
// of same-cycle activity. Registering after the first RunCycle is a
// programming error.
func (e *Engine) Register(t Ticker) {
	if e.now != 0 {
		panic(fmt.Sprintf("engine: component %s registered after cycle %d", t.Name(), e.now))
	}
	e.tickers = append(e.tickers, t)
}

// RunCycle advances the clock one cycle and ticks every component in
// registration order.
func (e *Engine) RunCycle() {
	e.now++
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
}

// Stats returns the engine's activity counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Cycles:     e.now,
		Components: make([]ComponentStats, len(e.tickers)),
	}
	for i, t := range e.tickers {
		// Every ticker ticks exactly once per RunCycle (the component set
		// is frozen at start), so per-component tick counts are derived
		// rather than counted in the hot loop.
		st.Components[i] = ComponentStats{Name: t.Name(), Ticks: e.now}
	}
	return st
}
