package obs

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestNilHandles calls every recording and reading method of the five
// metric handles on a nil receiver: each records nothing, reads zero and
// does not panic, so instrumented code needs no guard.
func TestNilHandles(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
		p *Progress
	)
	var buf bytes.Buffer
	cases := []struct {
		name string
		call func() any // the value read, or nil for a recording call
		want any
	}{
		{"Counter.Inc", func() any { c.Inc(); return nil }, nil},
		{"Counter.Add", func() any { c.Add(3); return nil }, nil},
		{"Counter.Value", func() any { return c.Value() }, uint64(0)},
		{"Gauge.Set", func() any { g.Set(2); return nil }, nil},
		{"Gauge.Add", func() any { g.Add(-1); return nil }, nil},
		{"Gauge.Value", func() any { return g.Value() }, 0.0},
		{"Histogram.Observe", func() any { h.Observe(5); return nil }, nil},
		{"Histogram.Count", func() any { return h.Count() }, uint64(0)},
		{"Histogram.Sum", func() any { return h.Sum() }, 0.0},
		{"Registry.Counter", func() any { return r.Counter("c", "", nil) }, (*Counter)(nil)},
		{"Registry.Gauge", func() any { return r.Gauge("g", "", nil) }, (*Gauge)(nil)},
		{"Registry.Histogram", func() any { return r.Histogram("h", "", []float64{1}, nil) }, (*Histogram)(nil)},
		{"Registry.Snapshot", func() any { return len(r.Snapshot()) }, 0},
		{"Registry.WritePrometheus", func() any { return r.WritePrometheus(&buf) }, error(nil)},
		{"Registry.WriteJSON", func() any { return r.WriteJSON(&buf) }, error(nil)},
		{"Progress.StartCampaign", func() any { p.StartCampaign("RF", "sha", "avgi", 4); return nil }, nil},
		{"Progress.FaultDone", func() any { p.FaultDone("RF", "sha", "avgi", 10, 100); return nil }, nil},
		{"Progress.SkipFaults", func() any { p.SkipFaults("RF", "sha", "avgi", 1); return nil }, nil},
		{"Progress.Snapshot", func() any { return p.Snapshot().FaultsTotal }, int64(0)},
		{"Progress.WriteJSON", func() any { return p.WriteJSON(&buf) }, error(nil)},
		{"Progress.Line", func() any { return p.Line() }, ProgressSnapshot{}.Line()},
		{"Progress.StartTicker", func() any { p.StartTicker(time.Hour, messageLogger(io.Discard))(); return nil }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.call(); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
	var o *Observer
	if o.Registry() != nil || (&Observer{}).Registry() != nil {
		t.Error("Registry() of a nil or empty observer is not nil")
	}
}

// TestAllocProgressFaultDone: recording a fault on a known pair allocates
// nothing — the pair map is keyed by a struct, not a concatenated string.
func TestAllocProgressFaultDone(t *testing.T) {
	p := NewProgress()
	structure, workload, mode := "RF", "sha", "avgi"
	p.StartCampaign(structure, workload, mode, 1<<20)
	if n := testing.AllocsPerRun(1000, func() {
		p.FaultDone(structure, workload, mode, 100, 1000)
	}); n != 0 {
		t.Errorf("FaultDone allocates %v objects per call, want 0", n)
	}
}
