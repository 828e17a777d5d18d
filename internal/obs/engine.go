package obs

import "avgi/internal/engine"

// PublishEngineStats folds one engine run's telemetry (cpu.Result.Engine)
// into the registry:
//
//   - avgi_engine_cycles_total: engine cycles executed, accumulated across
//     published runs
//   - avgi_engine_components: ticking components registered on the run's
//     engine (a shape gauge: 1, the machine's one core)
//   - avgi_engine_component_ticks_total: per-component Tick calls, with the
//     component's name as a label
//
// labels carry the run's identity (workload, machine) and are shared by
// every series; the per-component counter adds a "component" label on top.
// A nil registry is a no-op, matching the rest of the obs surface.
func PublishEngineStats(reg *Registry, labels map[string]string, s engine.Stats) {
	if reg == nil {
		return
	}
	reg.Counter("avgi_engine_cycles_total",
		"cycles executed by the deterministic tick engine", labels).
		Add(s.Cycles)
	reg.Gauge("avgi_engine_components",
		"ticking components registered on the engine", labels).
		Set(float64(len(s.Components)))
	for _, c := range s.Components {
		lb := make(map[string]string, len(labels)+1)
		for k, v := range labels {
			lb[k] = v
		}
		lb["component"] = c.Name
		reg.Counter("avgi_engine_component_ticks_total",
			"Tick calls delivered to one engine component", lb).
			Add(c.Ticks)
	}
}
