package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"avgi"
	"avgi/internal/cliflags"
	"avgi/internal/dist"
)

func newTestServer(t *testing.T, journalDir string) (*httptest.Server, *avgi.Service) {
	t.Helper()
	obsv := avgi.NewObserver(nil)
	svc, err := avgi.NewService(avgi.ServiceConfig{
		Workers:    4,
		JournalDir: journalDir,
		Obs:        obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(svc, obsv, nil, nil))
	t.Cleanup(ts.Close)
	return ts, svc
}

const assessBody = `{"structure":"RF","workload":"crc32","mode":"hvf","faults":16,"seed":7}`

// envelope mirrors avgi.AssessResponse with the result kept raw, so tests
// can compare the cache-independent payload byte-for-byte.
type envelope struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result"`
	Meta   avgi.AssessMeta `json:"meta"`
}

func postAssess(t *testing.T, url, body string) (envelope, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/assess", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return env, resp.StatusCode
}

// TestServerSequentialHitByteIdentical is the tentpole e2e acceptance
// test over real HTTP: the second identical POST must be served from the
// journal with zero simulated faults, and its result payload must be
// byte-identical to the freshly simulated first response.
func TestServerSequentialHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, dir)
	first, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d", code)
	}
	if first.Meta.JournalHit || first.Meta.SimulatedFaults != 16 {
		t.Fatalf("first response meta %+v, want a 16-fault fresh simulation", first.Meta)
	}
	second, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("second POST: %d", code)
	}
	if !second.Meta.JournalHit || second.Meta.SimulatedFaults != 0 {
		t.Errorf("second response meta %+v, want a zero-simulation journal hit", second.Meta)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cache-hit result bytes diverge from fresh simulation:\n first: %s\nsecond: %s",
			first.Result, second.Result)
	}
	// A standalone server is no fleet peer: it announces nothing.
	if _, err := os.Stat(filepath.Join(dir, "feed")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("standalone server touched the campaign feed: %v", err)
	}
}

// TestServerConcurrentRequestsCoalesce fires identical requests
// concurrently over HTTP at an uncached server: at least one must report
// coalescing onto another's execution, and every result must be
// byte-identical.
func TestServerConcurrentRequestsCoalesce(t *testing.T) {
	ts, svc := newTestServer(t, "")
	const n = 4
	envs := make([]envelope, n)
	codes := make([]int, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			envs[i], codes[i] = postAssess(t, ts.URL, assessBody)
		}(i)
	}
	close(start)
	wg.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if envs[i].Meta.Coalesced {
			coalesced++
		}
		if !bytes.Equal(envs[0].Result, envs[i].Result) {
			t.Errorf("request %d result diverges", i)
		}
	}
	if coalesced == 0 {
		t.Error("no concurrent request coalesced: single-flight not engaged over HTTP")
	}
	if svc.Budget().InUse() != 0 {
		t.Errorf("worker budget not drained: %d", svc.Budget().InUse())
	}
}

func TestServerValidationErrorsAreJSON(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for _, body := range []string{
		`{"structure":"RF","workload":"crc32","mode":"bogus"}`,
		`{"structure":"NOPE","workload":"crc32","mode":"hvf"}`,
		`{"structure":"c1/RF","workload":"crc32","mode":"hvf"}`, // no core-prefixed form exists
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
		var je struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &je); err != nil || je.Error == "" {
			t.Errorf("POST %s: body %q is not a JSON error", body, raw)
		}
	}
}

// TestServerOversizedBodyRejected: a body past maxBodyBytes gets a JSON 4xx
// "too large" error from the assessment API, and the server answers the
// next request.
func TestServerOversizedBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, "")
	// The body is a request the endpoint would accept (unknown fields are
	// ignored), so only the size limit can turn it away.
	body := strings.TrimSuffix(assessBody, "}") + `,"pad":"` + strings.Repeat("A", maxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode > 499 {
		t.Errorf("POST with a body over %d bytes: status %d, want 4xx", maxBodyBytes, resp.StatusCode)
	}
	var je struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &je) != nil || !strings.Contains(je.Error, "too large") {
		t.Errorf("body %.120q is not a JSON \"too large\" error", raw)
	}
	if _, code := postAssess(t, ts.URL, assessBody); code != http.StatusOK {
		t.Errorf("request after the oversized one: status %d, want 200", code)
	}
}

func TestServerRequestRegistryAndTelemetry(t *testing.T) {
	ts, _ := newTestServer(t, "")
	env, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatal(code)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, env.ID))
	if err != nil {
		t.Fatal(err)
	}
	var info avgi.RequestInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.State != avgi.StateDone {
		t.Errorf("request %d state %q, want done", env.ID, info.State)
	}

	if resp, err = http.Get(ts.URL + "/v1/requests/999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown request id: status %d, want 404", resp.StatusCode)
	}

	// The observer's telemetry shares the mux: server metrics are visible
	// on the same port as the API.
	if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "avgi_server_requests_total") {
		t.Errorf("/metrics (status %d) does not expose avgi_server_requests_total", resp.StatusCode)
	}
}

// TestServerWatchStreams drives one assessment while a watcher tails its
// /watch stream; the stream must end with a terminal-state frame.
func TestServerWatchStreams(t *testing.T) {
	ts, svc := newTestServer(t, "")
	done := make(chan envelope, 1)
	go func() {
		env, _ := postAssess(t, ts.URL, `{"structure":"RF","workload":"sha","mode":"exhaustive","faults":24}`)
		done <- env
	}()

	// Find the request's ID via the registry once it is registered.
	var id uint64
	deadline := time.Now().Add(10 * time.Second)
	for id == 0 && time.Now().Before(deadline) {
		if reqs := svc.Requests(); len(reqs) > 0 {
			id = reqs[0].ID
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if id == 0 {
		t.Fatal("request never appeared in the registry")
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d/watch", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch Content-Type %q", ct)
	}
	var last watchFrame
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("frame %d: %v (%s)", frames, err, sc.Bytes())
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("watch stream delivered no frames")
	}
	if last.State != avgi.StateDone {
		t.Errorf("final frame state %q, want done", last.State)
	}
	if last.ID != id {
		t.Errorf("final frame id %d, want %d", last.ID, id)
	}
	<-done
}

func TestRecoverJSONTurnsPanicInto500(t *testing.T) {
	h := recoverJSON(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(errors.New("campaign invariant violated"))
	}), nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/assess", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var je struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &je); err != nil || !strings.Contains(je.Error, "campaign invariant") {
		t.Errorf("panic body %q is not the JSON error", rr.Body.String())
	}
}

// newPeerServer starts one fleet avgid over the shared journal dir: its
// Service runs campaigns through lease files there, its handler announces
// every assessment on dir/feed, and its poller is not started.
func newPeerServer(t *testing.T, dir, owner string) (*httptest.Server, *avgi.Service, *peer) {
	t.Helper()
	obsv := avgi.NewObserver(nil)
	svc, err := avgi.NewService(avgi.ServiceConfig{
		Workers: 2, JournalDir: dir, Obs: obsv,
		Dist: distConfig(&cliflags.Server{DistRole: "worker", DistOwner: owner, Workers: 4, LeaseTTL: time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(svc, dir, slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(newHandler(svc, obsv, p, nil))
	t.Cleanup(ts.Close)
	return ts, svc, p
}

// waitFor polls cond until it holds or 20 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// feedEntries lists the campaign feed of the journal dir.
func feedEntries(t *testing.T, dir string) []dist.FeedEntry {
	t.Helper()
	entries, err := dist.NewFeed(dir).Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestServerCoordinatorWorkerFleet is the end-to-end fleet: two avgid
// peers of the one role on one journal directory. A single POST to peer A
// is announced on the journal's feed, peer B polls it and runs its share,
// both lease through files in that journal, the feed is empty once the
// campaign is done, and A's answer is byte-identical to a standalone
// server's. B leaves -dist-owner unset: its fleet share runs under the
// default identity.
func TestServerCoordinatorWorkerFleet(t *testing.T) {
	dir := t.TempDir()
	tsA, svcA, peerA := newPeerServer(t, dir, "peer-a")
	tsB, svcB, peerB := newPeerServer(t, dir, "")
	// Both peers make their golden record first, answering a request a
	// standalone server journalled, so neither simulates. A cold peer
	// reads the journal only after both golden passes, and one that
	// finished them later than the other by more than the short campaign
	// takes would find it merged already: warm, the two race only for the
	// campaign's chunks.
	warm := avgi.AssessRequest{Structure: "RF", Workload: "crc32", Mode: "hvf", Faults: 1, Seed: 99}
	solo, err := avgi.NewService(avgi.ServiceConfig{Workers: 2, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Assess(warm); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []*avgi.Service{svcA, svcB} {
		if resp, err := svc.Assess(warm); err != nil || !resp.Meta.JournalHit {
			t.Fatalf("warm-up: %v, journal hit %v", err, err == nil && resp.Meta.JournalHit)
		}
	}
	defer peerA.start(time.Second)()
	defer peerB.start(time.Second)()

	type answer struct {
		env  envelope
		code int
	}
	got := make(chan answer, 1)
	go func() {
		env, code := postAssess(t, tsA.URL, assessBody)
		got <- answer{env, code}
	}()
	// Poll B the moment A's announcement lands rather than on its next
	// tick, so B joins while A's campaign is still in flight.
	waitFor(t, "A announces the campaign", func() bool { return len(feedEntries(t, dir)) > 0 })
	peerB.poll()
	a := <-got
	if a.code != http.StatusOK {
		t.Fatalf("peer A assess status %d", a.code)
	}
	if a.env.Meta.JournalHit {
		t.Fatalf("first distributed assessment reported a journal hit: %+v", a.env.Meta)
	}

	// B ran the announced campaign, and the feed holds nothing once it is
	// done.
	waitFor(t, "B runs the campaign and the feed empties", func() bool {
		reqs := svcB.Requests() // newest first, after the warm-up
		return len(reqs) == 2 && reqs[0].State == avgi.StateDone && len(feedEntries(t, dir)) == 0
	})
	// Its fleet share ran under the default identity: the dist layer
	// labels the node's series with the owner of its leases and part shard.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if series := fmt.Sprintf("avgi_dist_faults_total{node=%q}", dist.DefaultOwner()); !bytes.Contains(metrics, []byte(series)) {
		t.Errorf("peer B /metrics has no %s: its fleet share ran under another owner", series)
	}

	// The fleet leased through files in the shared journal.
	if fi, err := os.Stat(filepath.Join(dir, "leases", "slots")); err != nil || !fi.IsDir() {
		t.Errorf("no slot leases under the shared journal: %v", err)
	}

	// Byte-identity against a standalone server over a fresh journal.
	rts, _ := newTestServer(t, t.TempDir())
	ref, code := postAssess(t, rts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("reference assess status %d", code)
	}
	if !bytes.Equal(a.env.Result, ref.Result) {
		t.Error("fleet payload diverges from the standalone server's")
	}
}

// TestFeedEntryOutlivesAnnouncer: a campaign announced by a peer that stops
// before its assessment returns stays in the journal's feed; a peer started
// afterwards runs it and removes it.
func TestFeedEntryOutlivesAnnouncer(t *testing.T) {
	dir := t.TempDir()
	_, _, peerA := newPeerServer(t, dir, "peer-a")
	stopA := peerA.start(time.Second)
	name := peerA.announce(avgi.AssessRequest{Structure: "RF", Workload: "crc32", Mode: "hvf", Faults: 4, Seed: 3})
	if name == "" {
		t.Fatal("peer A could not announce")
	}
	stopA() // A is gone; its entry was never removed
	if entries := feedEntries(t, dir); len(entries) != 1 || entries[0].Name != name {
		t.Fatalf("feed after A stopped: %+v, want just %s", entries, name)
	}

	_, svcB, peerB := newPeerServer(t, dir, "peer-b")
	defer peerB.start(time.Second)()
	waitFor(t, "B runs A's entry and removes it", func() bool {
		reqs := svcB.Requests()
		return len(reqs) == 1 && reqs[0].State == avgi.StateDone && len(feedEntries(t, dir)) == 0
	})
	if req := svcB.Requests()[0].Request; req.Seed != 3 || req.Faults != 4 {
		t.Errorf("B ran %+v, want A's announced request", req)
	}
}
