package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressSnapshot(t *testing.T) {
	p := NewProgress()
	clk := newFakeClock()
	p.SetClock(clk.now)

	p.StartCampaign("RF", "sha", "avgi", 100)
	p.StartCampaign("ROB", "sha", "avgi", 50)
	clk.advance(10 * time.Second)
	for i := 0; i < 30; i++ {
		p.FaultDone("RF", "sha", "avgi", 1000, 10000) // 10x speedup each
	}

	s := p.Snapshot()
	if s.FaultsDone != 30 || s.FaultsTotal != 150 {
		t.Fatalf("done/total %d/%d, want 30/150", s.FaultsDone, s.FaultsTotal)
	}
	if s.FaultsPerSec != 3 {
		t.Errorf("rate %v, want 3", s.FaultsPerSec)
	}
	if s.SimCyclesPerSec != 3000 {
		t.Errorf("cycle rate %v, want 3000", s.SimCyclesPerSec)
	}
	if s.SpeedupVsExhaustive != 10 {
		t.Errorf("speedup %v, want 10", s.SpeedupVsExhaustive)
	}
	if want := 120.0 / 3; s.ETASec != want {
		t.Errorf("ETA %v, want %v", s.ETASec, want)
	}
	if len(s.Pairs) != 2 {
		t.Fatalf("%d pairs", len(s.Pairs))
	}
	// Pairs sort by structure|workload|mode key: RF before ROB ('F' < 'O').
	if s.Pairs[0].Structure != "RF" || s.Pairs[0].Done != 30 || s.Pairs[0].Total != 100 {
		t.Errorf("pair 0 = %+v", s.Pairs[0])
	}
	if s.Pairs[1].Structure != "ROB" || s.Pairs[1].Done != 0 || s.Pairs[1].Total != 50 {
		t.Errorf("pair 1 = %+v", s.Pairs[1])
	}

	line := s.Line()
	want := "faults 30/150 (20.0%) | 3.0 faults/s | 3.0k simcycles/s | speedup vs exhaustive 10.0x | ETA 40s"
	if line != want {
		t.Errorf("Line() = %q\n          want %q", line, want)
	}
}

// TestSkipFaults covers the distributed-claim retraction: skipped faults
// leave the totals so a striped campaign still converges to 100%, and the
// retraction clamps at the completions already recorded.
func TestSkipFaults(t *testing.T) {
	p := NewProgress()
	p.StartCampaign("RF", "sha", "avgi", 100)
	for i := 0; i < 10; i++ {
		p.FaultDone("RF", "sha", "avgi", 1000, 1000)
	}
	p.SkipFaults("RF", "sha", "avgi", 40)
	s := p.Snapshot()
	if s.FaultsDone != 10 || s.FaultsTotal != 60 {
		t.Fatalf("after skip: done/total %d/%d, want 10/60", s.FaultsDone, s.FaultsTotal)
	}
	// Over-retraction clamps: total can never drop below done.
	p.SkipFaults("RF", "sha", "avgi", 999)
	if s := p.Snapshot(); s.FaultsTotal != 10 {
		t.Fatalf("clamped skip left total %d, want 10", s.FaultsTotal)
	}
	// A skip on an unknown pair is harmless.
	p.SkipFaults("ROB", "sha", "avgi", 5)
	if s := p.Snapshot(); s.FaultsTotal != 10 {
		t.Fatalf("skip on a fresh pair changed total to %d", s.FaultsTotal)
	}
}

// TestStartCampaignIdempotentWhileInFlight: a second announcement on a
// triple still in flight is a distinct campaign (the single-flight
// executor announces identical ones once), so it accumulates — the total
// is 2n from the second announcement on, never the first campaign's n.
func TestStartCampaignIdempotentWhileInFlight(t *testing.T) {
	p := NewProgress()
	const n = 80 // each campaign's fault-list size
	p.StartCampaign("RF", "sha", "exhaustive", n)
	for i := 0; i < n/2; i++ {
		p.FaultDone("RF", "sha", "exhaustive", 10, 10)
	}
	p.StartCampaign("RF", "sha", "exhaustive", n)
	for i := n / 2; i <= 2*n; i++ {
		s := p.Snapshot()
		if s.FaultsTotal != 2*n || s.Pairs[0].Total != 2*n || s.Pairs[0].Done != i {
			t.Fatalf("after %d completions: pair %d/%d, study total %d, want %d/%d",
				i, s.Pairs[0].Done, s.Pairs[0].Total, s.FaultsTotal, i, 2*n)
		}
		if i < 2*n {
			p.FaultDone("RF", "sha", "exhaustive", 10, 10)
		}
	}
}

// TestFaultDoneGrowsTotalWhenOutrun: two campaigns racing on one triple
// are both announced before either finishes; the pair's total is their sum
// throughout, so completions never outrun it and the pair reads 100% only
// once both are done.
func TestFaultDoneGrowsTotalWhenOutrun(t *testing.T) {
	const n = 2
	p := NewProgress()
	p.StartCampaign("RF", "sha", "exhaustive", n)
	p.StartCampaign("RF", "sha", "exhaustive", n)
	for i := 1; i <= 2*n; i++ {
		p.FaultDone("RF", "sha", "exhaustive", 1, 1)
		s := p.Snapshot()
		if s.Pairs[0].Done != i || s.Pairs[0].Total != 2*n || s.FaultsTotal != 2*n {
			t.Fatalf("after %d completions: pair %d/%d, study total %d, want %d/%d total %d",
				i, s.Pairs[0].Done, s.Pairs[0].Total, s.FaultsTotal, i, 2*n, 2*n)
		}
	}
}

func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	const workers = 8
	const perWorker = 500
	p.StartCampaign("RF", "sha", "exhaustive", workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.FaultDone("RF", "sha", "exhaustive", 10, 10)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.FaultsDone != workers*perWorker || s.Pairs[0].Done != workers*perWorker {
		t.Fatalf("done %d / pair %d, want %d", s.FaultsDone, s.Pairs[0].Done, workers*perWorker)
	}
}

// messageLogger returns a logger that writes each record's message alone
// on a line to w.
func messageLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key != slog.MessageKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

func TestLogfFormat(t *testing.T) {
	var buf strings.Builder
	New(messageLogger(&buf)).Logf("hello %d", 7)
	if got, want := buf.String(), "msg=\"hello 7\"\n"; got != want {
		t.Errorf("Logf wrote %q, want %q", got, want)
	}
	New(nil).Logf("ignored") // a nil logger is silent, and must not panic
}

func TestStartTickerStopWritesFinalLine(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	})
	p := NewProgress()
	stop := p.StartTicker(time.Hour, messageLogger(w)) // never ticks during the test
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "faults 0/0") {
		t.Errorf("final line missing, got %q", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Errorf("%d lines after double stop, want 1", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

func TestHumanCount(t *testing.T) {
	cases := map[float64]string{
		12:     "12",
		3400:   "3.4k",
		2.5e6:  "2.50M",
		7.25e9: "7.25G",
	}
	for v, want := range cases {
		if got := humanCount(v); got != want {
			t.Errorf("humanCount(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	o := New(nil)
	o.Metrics.Counter("avgi_test_total", "test", nil).Add(3)
	o.Progress.StartCampaign("RF", "sha", "avgi", 10)
	sp := o.Span("phase", "test", nil)
	sp.End()

	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "avgi_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}

	body, _ = get("/progress.json")
	var ps ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("/progress.json: %v", err)
	}
	if ps.FaultsTotal != 10 {
		t.Errorf("/progress.json total %d, want 10", ps.FaultsTotal)
	}

	body, _ = get("/trace.json")
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json: %v", err)
	}
	if len(doc.TraceEvents) != 2 { // metadata + 1 span
		t.Errorf("/trace.json %d events, want 2", len(doc.TraceEvents))
	}

	body, _ = get("/")
	if !strings.Contains(body, "/progress.json") {
		t.Errorf("index page missing links:\n%s", body)
	}
}

func TestHandlerDisabledComponents(t *testing.T) {
	o := &Observer{} // everything nil
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/progress.json", "/trace.json"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with nil components: %s, want 404", path, resp.Status)
		}
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Error("nil observer reports enabled")
	}
	o.Logf("ignored")          // must not panic
	o.Span("x", "", nil).End() // must not panic
}
