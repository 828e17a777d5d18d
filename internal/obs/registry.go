// Package obs is the telemetry layer of the AVGI reproduction: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket histograms),
// a live campaign Progress reporter, and a span/event Tracer with NDJSON
// and Chrome trace_event export. Every layer of the stack — cpu.Machine,
// campaign.Runner and Study — feeds it, so a ~726k-simulation study is
// observable while it runs instead of being a black box until the final
// tables print.
//
// The package deliberately mirrors the Prometheus data model (metric
// families with label sets, cumulative histogram buckets) so the text
// renderer is scrape-compatible, but it has no dependencies: everything is
// the standard library.
//
// Absent telemetry is a nil handle. Every handle — *Counter, *Gauge,
// *Histogram, *Registry, *Progress, *Observer and *SpanRef — is nil-safe:
// a method that records on a nil receiver does nothing, one that reads
// returns zero, and a nil *Registry hands out nil instruments. Instrumented
// code therefore calls a handle without a guard; a nil test outside this
// package decides only whether to do work.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// use. Bounds are upper bucket bounds in increasing order; an implicit
// +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metric kinds
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labelled instance of a metric family.
type series struct {
	labels map[string]string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all series of one metric name.
type family struct {
	name, help, kind string
	bounds           []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // by label signature
	order  []string
}

// Registry is a concurrent-safe collection of metric families. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature canonicalises a label set into a map key.
func labelSignature(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\xff')
		b.WriteString(labels[k])
		b.WriteByte('\xfe')
	}
	return b.String()
}

func (r *Registry) familyFor(name, help, kind string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func (f *family) seriesFor(labels map[string]string) *series {
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[sig]
	if !ok {
		cp := make(map[string]string, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp}
		switch f.kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns (registering on first use) the counter with the given
// name and labels. Calling with a name already registered as a different
// kind panics.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, kindCounter, nil).seriesFor(labels).ctr
}

// Gauge returns (registering on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, kindGauge, nil).seriesFor(labels).gauge
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket bounds and labels. The bounds of the first
// registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels map[string]string) *Histogram {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, kindHistogram, bounds).seriesFor(labels).hist
}

// SeriesSnapshot is one labelled series in a Snapshot.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`

	// Counter value (counters only).
	Value uint64 `json:"value,omitempty"`
	// Gauge value (gauges only).
	GaugeValue float64 `json:"gauge_value,omitempty"`

	// Histogram fields (histograms only): cumulative counts per bound.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a consistent-enough point-in-time copy of every family,
// families in registration order, series in first-use order.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		f.mu.Lock()
		sigs := append([]string(nil), f.order...)
		srs := make([]*series, 0, len(sigs))
		for _, sig := range sigs {
			srs = append(srs, f.series[sig])
		}
		f.mu.Unlock()
		for _, s := range srs {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case kindCounter:
				ss.Value = s.ctr.Value()
			case kindGauge:
				ss.GaugeValue = s.gauge.Value()
			case kindHistogram:
				ss.Bounds = append([]float64(nil), s.hist.bounds...)
				ss.Buckets = make([]uint64, len(s.hist.buckets))
				var cum uint64
				for i := range s.hist.buckets {
					cum += s.hist.buckets[i].Load()
					ss.Buckets[i] = cum
				}
				ss.Count = s.hist.Count()
				ss.Sum = s.hist.Sum()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a label set as {k="v",...}, keys sorted; extra
// appends additional pre-rendered pairs (used for histogram le).
func labelString(labels map[string]string, extra ...string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, 0, len(keys)+len(extra))
	for _, k := range keys {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	pairs = append(pairs, extra...)
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			switch f.Kind {
			case kindCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, labelString(s.Labels), s.Value); err != nil {
					return err
				}
			case kindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(s.Labels), formatFloat(s.GaugeValue)); err != nil {
					return err
				}
			case kindHistogram:
				for i, b := range s.Bounds {
					le := fmt.Sprintf("le=%q", formatFloat(b))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labelString(s.Labels, le), s.Buckets[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labelString(s.Labels, `le="+Inf"`), s.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, labelString(s.Labels), formatFloat(s.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, labelString(s.Labels), s.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
