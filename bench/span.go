package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness side of
// the layer boundary. Parent is the index of the span that caused it (-1
// for a root) and ID ties together the spans of one unit of work (a
// golden run, a fault, a request).
type span struct {
	Name   string
	ID     string
	Parent int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerOf is the layer a span is charged to: the part of its name before
// the first dot ("campaign.window" belongs to layer "campaign").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one that is switched off, records nothing — the untraced run and the
// untraced half of the overhead comparison go through the same call sites.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), on: true} }

// enable switches recording on or off (the overhead comparison alternates
// it between otherwise identical rounds).
func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// begin opens a span and returns its handle; end closes it. The handle of
// a span that was not recorded is -1, which end and child spans accept.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	remap := make([]int, len(r.spans))
	for i, s := range r.spans {
		if s.End == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = remap[p]
		}
	}
	return out
}

// selfTimes folds spans into per-span self time: a span's duration minus
// the part of its interval that its direct children cover. Children may
// overlap one another (two workers under one campaign span), so coverage
// is the length of the union of their intervals clipped to the parent,
// not the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionWithin(kids[i], s.Start, s.End)
	}
	return self
}

// unionWithin is the total length of the union of intervals, each clipped
// to [lo, hi].
func unionWithin(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += d
	}
	return out
}

// spanTotals sums durations and counts by span name.
func spanTotals(spans []span) (total map[string]time.Duration, count map[string]int) {
	total = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.dur()
		count[s.Name]++
	}
	return total, count
}

// writeChromeTrace renders spans as chrome://tracing complete events, one
// track per layer.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tids := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		layer := layerOf(s.Name)
		if _, ok := tids[layer]; !ok {
			tids[layer] = len(tids) + 1
		}
		ev := event{Name: s.Name, Cat: layer, Ph: "X", TS: micros(s.Start), Dur: micros(s.dur()), PID: 1, TID: tids[layer]}
		if s.ID != "" {
			ev.Args = map[string]string{"id": s.ID}
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
