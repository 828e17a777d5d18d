package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one recorded phase of a study: a named interval with a category
// and free-form attributes.
type Span struct {
	Name    string            `json:"name"`
	Cat     string            `json:"cat,omitempty"`
	StartUS int64             `json:"start_us"` // microseconds since trace start
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	open bool
}

// maxSpans is how many spans a tracer keeps: the newest, so that a
// long-running avgid, which opens one per simulated campaign, holds a
// bounded trace. `avgi all` records 1 196 at its default -faults 400 (1 080
// at -faults 8), all of which fit.
const maxSpans = 4096

// Tracer records study phases (golden runs, campaigns, estimator
// train/assess) as spans, exportable as NDJSON or as Chrome trace_event
// JSON loadable in chrome://tracing. Safe for concurrent use. The zero
// value is not usable; call NewTracer.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time
	start   time.Time
	spans   []Span // the newest maxSpans, in start order
	evicted int    // spans dropped from the front of spans
}

// NewTracer returns an empty tracer; its clock starts at the first
// recorded span.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now}
}

// SetClock replaces the time source (tests).
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.start = time.Time{}
}

func (t *Tracer) sinceStartLocked() int64 {
	n := t.now()
	if t.start.IsZero() {
		t.start = n
	}
	return n.Sub(t.start).Microseconds()
}

// SpanRef ends a span started with StartSpan. A nil SpanRef, or one whose
// span the tracer has evicted, is a valid no-op, so callers can end
// unconditionally.
type SpanRef struct {
	t   *Tracer
	idx int
}

// StartSpan opens a span; call End on the returned ref to close it.
func (t *Tracer) StartSpan(name, cat string, attrs map[string]string) *SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.spans[0] = Span{}
		t.spans = t.spans[1:]
		t.evicted++
	}
	t.spans = append(t.spans, Span{
		Name:    name,
		Cat:     cat,
		StartUS: t.sinceStartLocked(),
		Attrs:   copyAttrs(attrs),
		open:    true,
	})
	return &SpanRef{t: t, idx: t.evicted + len(t.spans) - 1}
}

// End closes the span, fixing its duration.
func (s *SpanRef) End() {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	i := s.idx - s.t.evicted
	if i < 0 || !s.t.spans[i].open {
		return
	}
	sp := &s.t.spans[i]
	sp.open = false
	sp.DurUS = s.t.sinceStartLocked() - sp.StartUS
}

func copyAttrs(attrs map[string]string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	cp := make(map[string]string, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return cp
}

// Spans returns a copy of the recorded spans in start order; still-open
// spans get their duration extended to now.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].open {
			out[i].DurUS = t.sinceStartLocked() - out[i].StartUS
		}
	}
	return out
}

// WriteNDJSON exports one JSON object per span, in recording order.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace exports the spans as Chrome trace_event JSON, one
// complete ("X") event per span. Overlapping
// spans are packed onto distinct tracks (tids) greedily so every span is
// visible in chrome://tracing; tracks are deterministic for a given span
// sequence.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	// Greedy interval packing: assign each span (in start order) the first
	// track whose previous occupant has ended.
	type track struct{ busyUntil int64 }
	var tracks []track
	tids := make([]int, len(spans))
	for i, sp := range spans {
		assigned := -1
		for ti := range tracks {
			if tracks[ti].busyUntil <= sp.StartUS {
				assigned = ti
				break
			}
		}
		if assigned < 0 {
			tracks = append(tracks, track{})
			assigned = len(tracks) - 1
		}
		if end := sp.StartUS + sp.DurUS; end > tracks[assigned].busyUntil {
			tracks[assigned].busyUntil = end
		}
		tids[i] = assigned + 1
	}

	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "avgi study"},
	}}
	for i, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X", TS: sp.StartUS, Dur: sp.DurUS,
			PID: 1, TID: tids[i], Args: sp.Attrs,
		}
		if sp.Cat == "" {
			ev.Cat = "avgi"
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
