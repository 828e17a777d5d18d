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

func TestTickersInRegistrationOrder(t *testing.T) {
	e := New()
	var trace []string
	a := &recorder{name: "a", trace: &trace}
	b := &recorder{name: "b", trace: &trace}
	e.Register(a)
	e.Register(b)
	e.RunCycle()
	e.RunCycle()
	want := []string{"a@1", "b@1", "a@2", "b@2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
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
	for i := 0; i < 4; i++ {
		e.RunCycle()
	}
	st := e.Stats()
	if st.Cycles != 4 || st.Events != 0 {
		t.Fatalf("Stats = %+v, want Cycles 4 Events 0", st)
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
		for i := 0; i < 5; i++ {
			e.Register(&recorder{name: fmt.Sprintf("c%d", i), trace: &trace})
		}
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
