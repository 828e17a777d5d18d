package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for deterministic renders.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// sampleTrace records a study-shaped span sequence: an outer phase with
// two nested children (forcing extra tracks), then a second phase.
func sampleTrace() (*Tracer, *fakeClock) {
	tr := NewTracer()
	clk := newFakeClock()
	tr.SetClock(clk.now)

	golden := tr.StartSpan("golden runs", "golden", map[string]string{"workloads": "2"})
	sha := tr.StartSpan("golden sha", "golden", nil)
	clk.advance(5 * time.Millisecond)
	sha.End()
	crc := tr.StartSpan("golden crc32", "golden", nil)
	clk.advance(3 * time.Millisecond)
	crc.End()
	golden.End()

	clk.advance(1 * time.Millisecond)
	camp := tr.StartSpan("campaign exhaustive RF sha", "campaign",
		map[string]string{"structure": "RF", "faults": "400"})
	clk.advance(40 * time.Millisecond)
	camp.End()
	return tr, clk
}

func TestWriteChromeTraceGolden(t *testing.T) {
	tr, _ := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be valid JSON of the documented shape regardless of
	// the golden file.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 { // metadata + 4 spans
		t.Fatalf("%d trace events, want 5", len(doc.TraceEvents))
	}
	checkGolden(t, "trace.json", buf.Bytes())
}

func TestTrackPacking(t *testing.T) {
	// The outer "golden runs" span overlaps both children, so the children
	// must land on a second track; the later campaign span reuses track 1.
	tr, _ := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tid[ev.Name] = ev.TID
		}
	}
	if tid["golden runs"] != 1 {
		t.Errorf("outer span on track %d, want 1", tid["golden runs"])
	}
	if tid["golden sha"] != 2 || tid["golden crc32"] != 2 {
		t.Errorf("children on tracks %d/%d, want 2/2", tid["golden sha"], tid["golden crc32"])
	}
	if tid["campaign exhaustive RF sha"] != 1 {
		t.Errorf("campaign on track %d, want 1", tid["campaign exhaustive RF sha"])
	}
}

func TestOpenSpanExtendsToNow(t *testing.T) {
	tr := NewTracer()
	clk := newFakeClock()
	tr.SetClock(clk.now)
	tr.StartSpan("open", "", nil)
	clk.advance(7 * time.Millisecond)
	sp := tr.Spans()
	if len(sp) != 1 || sp[0].DurUS != 7000 {
		t.Fatalf("open span dur %dµs, want 7000", sp[0].DurUS)
	}
}

func TestNilSpanRefEnd(t *testing.T) {
	var s *SpanRef
	s.End() // must not panic
}

// TestTracerKeepsNewestSpans: a tracer past its bound keeps exactly the
// newest maxSpans spans, ending a span it evicted changes nothing, and the
// refs of the spans it kept still end their own.
func TestTracerKeepsNewestSpans(t *testing.T) {
	tr := NewTracer()
	clk := newFakeClock()
	tr.SetClock(clk.now)
	refs := make([]*SpanRef, maxSpans+10)
	for i := range refs {
		refs[i] = tr.StartSpan(fmt.Sprint("s", i), "", nil)
		clk.advance(time.Microsecond)
	}
	before := tr.Spans()
	if len(before) != maxSpans || before[0].Name != "s10" || before[maxSpans-1].Name != fmt.Sprint("s", maxSpans+9) {
		t.Fatalf("kept %d spans, %q to %q; want the newest %d", len(before), before[0].Name, before[len(before)-1].Name, maxSpans)
	}
	refs[0].End()
	refs[9].End()
	if after := tr.Spans(); !reflect.DeepEqual(before, after) {
		t.Error("ending an evicted span changed the trace")
	}
	clk.advance(time.Millisecond)
	refs[10].End()
	if sp := tr.Spans()[0]; sp.open || sp.DurUS != int64(maxSpans)+1000 {
		t.Errorf("the oldest kept span ended as %+v", sp)
	}
}
