package obs

import (
	"testing"

	"avgi/internal/engine"
)

func TestPublishEngineStats(t *testing.T) {
	r := NewRegistry()
	lb := map[string]string{"workload": "sha", "machine": "A72-like"}
	s := engine.Stats{
		Cycles: 1000,
		Components: []engine.ComponentStats{
			{Name: "c0", Ticks: 1000},
			{Name: "c1", Ticks: 900},
		},
	}
	PublishEngineStats(r, lb, s)
	// Publishing a second run accumulates the counters.
	PublishEngineStats(r, lb, s)

	if got := r.Counter("avgi_engine_cycles_total", "", lb).Value(); got != 2000 {
		t.Errorf("cycles_total = %d, want 2000", got)
	}
	if got := r.Gauge("avgi_engine_components", "", lb).Value(); got != 2 {
		t.Errorf("components = %v, want 2", got)
	}
	c1 := map[string]string{"workload": "sha", "machine": "A72-like", "component": "c1"}
	if got := r.Counter("avgi_engine_component_ticks_total", "", c1).Value(); got != 1800 {
		t.Errorf("c1 ticks_total = %d, want 1800", got)
	}
}

func TestPublishEngineStatsNilRegistry(t *testing.T) {
	PublishEngineStats(nil, nil, engine.Stats{Cycles: 1}) // must not panic
}
