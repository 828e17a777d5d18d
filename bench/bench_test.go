package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"avgi"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort a copy
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{4, 50, 2},  // n*p/100 exactly 2: rank 2, not 3
		{10, 90, 9}, // exact boundary again
		{20, 35, 7}, // 20*0.35 is 7.000000000000001 in float64; the rank is still 7
		{100, 99, 99},
		{1000, 99.9, 999},
		{5, 50, 3}, // 2.5 rounds up
		{7, 100, 7},
		{7, 0.1, 1},
		{1, 99, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	xs := seq(4)
	percentile(xs, 50)
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 39: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median return, which is what the acceptance procedure uses.
func TestQuartilesAndSpreadMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	q1, q3 = quartiles(xs)
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles(%v) = %g, %g, want 1.25, 5.75", xs, q1, q3)
	}
	if m := median(xs); m != 3.5 {
		t.Errorf("median = %g, want 3.5", m)
	}
	if got, want := spread(xs), (5.75-1.25)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if q1, q3 = quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two samples = %g, %g, want 7.5, 22.5", q1, q3)
	}
}

func TestSpreadCheck(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	if !withinBound(steady, 0.05) {
		t.Errorf("steady sample (spread %.3f) judged outside a 5%% bound", spread(steady))
	}
	if withinBound(noisy, 0.05) {
		t.Errorf("noisy sample (spread %.3f) judged within a 5%% bound", spread(noisy))
	}
	if spread([]float64{5}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two samples must be 0")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "campaign.run", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "cpu.window", Parent: 0, Start: ms(10), End: ms(50)},      // two workers
		{Name: "cpu.window", Parent: 0, Start: ms(30), End: ms(70)},      // overlapping
		{Name: "journal.append", Parent: 0, Start: ms(90), End: ms(120)}, // runs past the parent
		{Name: "mem.sync", Parent: 1, Start: ms(20), End: ms(25)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(100 - 60 - 10), ms(40 - 5), ms(40), ms(30), ms(5)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["cpu"] != ms(75) || layers["campaign"] != ms(30) || layers["mem"] != ms(5) {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	none.end(none.begin("cpu.run", "", -1)) // a nil recorder is the untraced run
	none.enable(true)
	if none.snapshot() != nil {
		t.Error("nil recorder produced spans")
	}

	r := newRecorder()
	root := r.begin("campaign.fault", "RF/sha", -1)
	kid := r.begin("cpu.advance", "RF/sha", root)
	r.end(kid)
	r.enable(false)
	if h := r.begin("cpu.window", "", root); h != -1 {
		t.Errorf("switched-off recorder returned handle %d", h)
	}
	r.enable(true)
	open := r.begin("cpu.never_closed", "", root)
	r.end(root)
	_ = open
	spans := r.snapshot()
	if len(spans) != 2 || spans[0].Name != "campaign.fault" || spans[1].Parent != 0 {
		t.Fatalf("snapshot = %+v, want the two closed spans with the child under the root", spans)
	}
	var buf strings.Builder
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Fatalf("chrome trace does not parse back to two events: %v\n%s", err, buf.String())
	}
}

// benchmarkJSON mirrors the contract's file format.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s", i, doc.Workloads[i], w.Name)
		}
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, s := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better || d.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness has %+v", i, d, s)
		}
		check(s.Name, s.Unit, s.Better)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for i, s := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness has %+v", i, d, s)
		}
		check(s.Name, s.Unit, s.Better)
	}
	if len(perLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("contract limits: %d per-layer metrics, run_seconds %d, %d bytes", len(perLayer), doc.RunSeconds, len(data))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

func TestCorruptPinFailsCheck(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != 26 {
		t.Fatalf("pins.json pins %d golden runs, want 26", len(pins))
	}
	for _, c := range goldenCases() {
		if c.id != "sha/a72" {
			continue
		}
		res, _ := goldenRun(c)
		var chk checks
		checkPin(&chk, pins, c.id, res)
		if chk.failed != 0 {
			t.Fatalf("sha/a72 does not match its pin: %v", chk.notes)
		}
		bad := pins[c.id]
		bad.Cycles++
		checkPin(&chk, map[string]pin{c.id: bad}, c.id, res)
		if chk.failed != 1 || chk.attempted != 2 {
			t.Fatalf("a corrupted pin went unnoticed: %d failed of %d", chk.failed, chk.attempted)
		}
	}
}

// A fake avgid that answers a hit with different result bytes than the
// cold response must trip the byte-identity check.
func TestCorruptCachedResponseFailsCheck(t *testing.T) {
	results := "[1,2,3]"
	meta := avgi.AssessMeta{SimulatedFaults: 3}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m, _ := json.Marshal(meta)
		fmt.Fprintf(w, `{"id":1,"result":{"results":%s},"meta":%s}`, results, m)
	}))
	defer ts.Close()
	e := &env{ctx: context.Background()}
	s := &serveSession{e: e, srv: &avgidProc{base: ts.URL, client: ts.Client()}}
	k := serveKey{req: serveRequest("RF", "sha", 3, 1)}
	if _, ok := s.do("cold", &k, simulated); !ok {
		t.Fatalf("cold response rejected: %v", e.chk.notes)
	}
	meta = avgi.AssessMeta{JournalHit: true, ResumedFaults: 3}
	if _, ok := s.do("warm", &k, cached); !ok {
		t.Fatalf("identical hit rejected: %v", e.chk.notes)
	}
	results = "[1,2,4]"
	if _, ok := s.do("warm", &k, cached); ok || e.chk.failed != 1 {
		t.Fatalf("a hit with different result bytes passed (failed=%d)", e.chk.failed)
	}
	meta = avgi.AssessMeta{SimulatedFaults: 3}
	results = "[1,2,3]"
	if _, ok := s.do("warm", &k, cached); ok || e.chk.failed != 2 {
		t.Fatal("a re-simulated response passed as a cache hit")
	}
}

func TestAvgidStartFailureSurfacesStderr(t *testing.T) {
	sh := "/bin/sh"
	if _, err := os.Stat(sh); err != nil {
		t.Skip("no /bin/sh")
	}
	// sh rejects avgid's flags, prints why on stderr and exits: the start
	// must fail promptly and carry that stderr.
	_, err := startAvgid(context.Background(), sh, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "avgid stderr:") {
		t.Fatalf("startAvgid on a non-server = %v, want an error carrying the child's stderr", err)
	}
}

// smokeEnv is a tiny-scale environment with a near-zero time budget, so
// every workload does its minimum of rounds.
func smokeEnv(t *testing.T, traced bool) *env {
	e := &env{ctx: context.Background(), seed: 3, budget: 50 * time.Millisecond, sc: tinyScale, tmp: t.TempDir()}
	if traced {
		e.rec = newRecorder()
		e.layer = make(map[string]float64)
	}
	return e
}

// TestSmokeWorkloads runs all four workloads end to end at tiny scale so
// that tier-1 keeps the harness compiling and its output checks passing.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			e := smokeEnv(t, w.Name == "study-e2e")
			o, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if e.chk.failed != 0 || e.chk.attempted == 0 {
				t.Fatalf("%d of %d output checks failed: %v", e.chk.failed, e.chk.attempted, e.chk.notes)
			}
			for name, m := range report(endToEnd, endToEndValues(o)) {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", name, m.Value)
				}
			}
			if e.traced() && e.layer["study.train_s"] == 0 {
				t.Error("traced study-e2e reported no study.train_s")
			}
		})
	}
}

// TestSmokeTracedSections runs the primitives and the anatomy replay: every
// per-layer metric that does not belong to a workload's own spans must be
// measured, and the replay must agree with Runner.Run fault for fault.
func TestSmokeTracedSections(t *testing.T) {
	t.Parallel()
	e := smokeEnv(t, true)
	if err := primitives(e); err != nil {
		t.Fatal(err)
	}
	if err := anatomy(e); err != nil {
		t.Fatal(err)
	}
	if e.chk.failed != 0 {
		t.Fatalf("%d of %d output checks failed: %v", e.chk.failed, e.chk.attempted, e.chk.notes)
	}
	fromWorkloads := regexp.MustCompile(`^(study\.|service\.(shard_cache|cold|warm|journal|mix)|avgid\.(http_residue|build)|bench\.)`)
	// Legitimately zero: no engine events on one core, nothing quarantined,
	// and counts too rare to show in a 16-fault chunk.
	mayBeZero := map[string]bool{"engine.events_per_cycle": true, "campaign.quarantined_total": true,
		"mem.cow_pages_per_fault": true, "campaign.early_exit_ratio": true}
	for _, s := range perLayer {
		v, ok := e.layer[s.Name]
		switch {
		case fromWorkloads.MatchString(s.Name):
		case !ok:
			t.Errorf("%s was not measured", s.Name)
		case v == 0 && !mayBeZero[s.Name]:
			t.Errorf("%s = 0", s.Name)
		}
	}
	if len(report(perLayer, e.layer)) != len(perLayer) {
		t.Error("report dropped per-layer metrics")
	}
}
