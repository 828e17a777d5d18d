package engine

import (
	"fmt"
	"reflect"
	"testing"
)

// recorder is a minimal ticking component that logs its ticks into a shared
// trace so tests can assert global ordering.
type recorder struct {
	name  string
	trace *[]string
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) Tick(cycle uint64) {
	*r.trace = append(*r.trace, fmt.Sprintf("%s@%d", r.name, cycle))
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	// Schedule out of push order on purpose: insertion sequence, not heap
	// layout, must decide same-cycle ordering.
	e.Schedule(3, func(uint64) { got = append(got, 0) })
	e.Schedule(3, func(uint64) { got = append(got, 1) })
	e.Schedule(2, func(uint64) { got = append(got, 2) })
	e.Schedule(3, func(uint64) { got = append(got, 3) })
	for i := 0; i < 3; i++ {
		e.RunCycle()
	}
	want := []int{2, 0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

func TestEventsFireBeforeTicksAndTickersInRegistrationOrder(t *testing.T) {
	e := New()
	var trace []string
	a := &recorder{name: "a", trace: &trace}
	b := &recorder{name: "b", trace: &trace}
	e.Register(a)
	e.Register(b)
	e.Schedule(1, func(cycle uint64) { trace = append(trace, fmt.Sprintf("ev@%d", cycle)) })
	e.RunCycle()
	e.RunCycle()
	want := []string{"ev@1", "a@1", "b@1", "a@2", "b@2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLateEventFiresNextCycle(t *testing.T) {
	e := New()
	var fired []uint64
	e.RunCycle()                                                       // now = 1
	e.Schedule(1, func(cycle uint64) { fired = append(fired, cycle) }) // already past
	e.Schedule(0, func(cycle uint64) { fired = append(fired, cycle) })
	e.RunCycle() // now = 2: both overdue events fire here
	if !reflect.DeepEqual(fired, []uint64{2, 2}) {
		t.Fatalf("fired = %v, want [2 2]", fired)
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	e := New()
	e.RunCycle()
	defer func() {
		if recover() == nil {
			t.Fatal("Register after RunCycle did not panic")
		}
	}()
	var trace []string
	e.Register(&recorder{name: "late", trace: &trace})
}

func TestStatsCountCyclesEventsTicks(t *testing.T) {
	e := New()
	var trace []string
	a := &recorder{name: "a", trace: &trace}
	e.Register(a)
	e.Schedule(1, func(uint64) {})
	e.Schedule(2, func(uint64) {})
	for i := 0; i < 4; i++ {
		e.RunCycle()
	}
	st := e.Stats()
	if st.Cycles != 4 || st.Events != 2 {
		t.Fatalf("Stats = %+v, want Cycles 4 Events 2", st)
	}
	if len(st.Components) != 1 || st.Components[0].Name != "a" || st.Components[0].Ticks != 4 {
		t.Fatalf("component stats = %+v", st.Components)
	}
}

// TestEngineDeterminism is the in-package half of the mgpusim-style gate:
// the same build+run sequence executed twice must produce identical
// observable traces.
func TestEngineDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		var trace []string
		comps := make([]*recorder, 5)
		for i := range comps {
			comps[i] = &recorder{name: fmt.Sprintf("c%d", i), trace: &trace}
			e.Register(comps[i])
		}
		// A self-rescheduling event chain mixed with ticks.
		var chain Handler
		chain = func(cycle uint64) {
			trace = append(trace, fmt.Sprintf("chain@%d", cycle))
			if cycle < 40 {
				e.Schedule(cycle+3, chain)
			}
		}
		e.Schedule(2, chain)
		for i := 0; i < 50; i++ {
			e.RunCycle()
		}
		return trace
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("identical engine runs diverged")
	}
}
