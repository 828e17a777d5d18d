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
	"sync/atomic"
	"testing"
	"time"

	"avgi"
	"avgi/internal/cliflags"
	"avgi/internal/dist"
)

func newTestServer(t *testing.T, journalDir string) (*httptest.Server, *avgi.Service) {
	t.Helper()
	obsv := avgi.NewObserver(io.Discard)
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
	ts, _ := newTestServer(t, t.TempDir())
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

// TestServerOversizedBodyRejected: a body past maxBodyBytes gets a 4xx — a
// JSON error from the assessment API — on every POST endpoint behind the
// mux, coordinator included, and the server answers the next request.
func TestServerOversizedBodyRejected(t *testing.T) {
	obsv := avgi.NewObserver(io.Discard)
	svc, err := avgi.NewService(avgi.ServiceConfig{Workers: 2, Obs: obsv})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(svc, obsv, dist.NewCoordinator(), nil))
	defer ts.Close()

	// Each body is a request its endpoint would accept (unknown fields are
	// ignored), so only the size limit can turn it away.
	pad := `,"pad":"` + strings.Repeat("A", maxBodyBytes) + `"}`
	for path, body := range map[string]string{
		"/v1/assess":         strings.TrimSuffix(assessBody, "}"),
		"/v1/dist/lease":     `{"op":"release","name":"chunk","owner":"n1"`,
		"/v1/dist/register":  `{"node":"n1"`,
		"/v1/dist/campaigns": `{"spec":{"faults":1}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body+pad))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode > 499 {
			t.Errorf("POST %s with a body over %d bytes: status %d, want 4xx", path, maxBodyBytes, resp.StatusCode)
		}
		var je struct {
			Error string `json:"error"`
		}
		if path == "/v1/assess" && (json.Unmarshal(raw, &je) != nil || !strings.Contains(je.Error, "too large")) {
			t.Errorf("POST %s: body %.120q is not a JSON \"too large\" error", path, raw)
		}
	}
	if _, code := postAssess(t, ts.URL, assessBody); code != http.StatusOK {
		t.Errorf("request after the oversized ones: status %d, want 200", code)
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

// TestServerCoordinatorWorkerFleet is the end-to-end distributed topology:
// an avgid coordinator (campaign feed and roster mounted on its own mux)
// and an avgid-style worker polling its campaign feed share one journal
// directory. A single POST to the coordinator fans out over /v1/dist/*,
// both nodes run fleet shares leasing through files in that journal, and
// the answer is byte-identical to a standalone server's. The worker leaves
// -dist-owner unset: the name it registers must be the owner its fleet
// share runs under.
func TestServerCoordinatorWorkerFleet(t *testing.T) {
	dir := t.TempDir()
	obsv := avgi.NewObserver(io.Discard)
	coordSvc, err := avgi.NewService(avgi.ServiceConfig{
		Workers: 2, JournalDir: dir, Obs: obsv,
		Dist: distConfig(&cliflags.Server{DistRole: "coordinator", DistOwner: "coord-node", Workers: 4, LeaseTTL: 2 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(coordSvc, obsv, dist.NewCoordinator(), nil))
	defer ts.Close()

	workerDist := distConfig(&cliflags.Server{DistRole: "worker", Coordinator: ts.URL, Workers: 4, LeaseTTL: 2 * time.Second})
	workerObs := avgi.NewObserver(io.Discard)
	workerSvc, err := avgi.NewService(avgi.ServiceConfig{
		Workers: 2, JournalDir: dir, Dist: workerDist, Obs: workerObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(newHandler(workerSvc, workerObs, nil, nil))
	defer wts.Close()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	stop := startWorkerPoll(workerSvc, ts.URL, workerDist.Owner, 500*time.Millisecond, quiet)
	defer stop()

	env, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("coordinator assess status %d", code)
	}
	if env.Meta.JournalHit {
		t.Fatalf("first distributed assessment reported a journal hit: %+v", env.Meta)
	}

	// The worker registered on the coordinator's node roster under the
	// default identity, and ran the announced campaign.
	var roster []struct {
		Node string `json:"node"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/dist/nodes")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&roster)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		reqs := workerSvc.Requests()
		if len(roster) == 1 && len(reqs) == 1 && reqs[0].State == avgi.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered and ran the campaign; roster %+v, requests %+v", roster, reqs)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if roster[0].Node != dist.DefaultOwner() {
		t.Errorf("roster names %q, want the default identity %q", roster[0].Node, dist.DefaultOwner())
	}
	// Its fleet share ran under that same name: the dist layer labels the
	// node's series with the owner of its leases and part shard.
	resp, err := http.Get(wts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if series := fmt.Sprintf("avgi_dist_faults_total{node=%q}", roster[0].Node); !bytes.Contains(metrics, []byte(series)) {
		t.Errorf("worker /metrics has no %s: its fleet share ran under another owner", series)
	}

	// The fleet leased through files in the shared journal.
	if fi, err := os.Stat(filepath.Join(dir, "leases", "slots")); err != nil || !fi.IsDir() {
		t.Errorf("no slot leases under the shared journal: %v", err)
	}

	// Byte-identity against a standalone server over a fresh journal.
	ref, refCode := func() (envelope, int) {
		rts, _ := newTestServer(t, t.TempDir())
		return postAssess(t, rts.URL, assessBody)
	}()
	if refCode != http.StatusOK {
		t.Fatalf("reference assess status %d", refCode)
	}
	if !bytes.Equal(env.Result, ref.Result) {
		t.Error("distributed fleet payload diverges from the standalone server's")
	}
}

// TestWorkerFeedSurvivesCoordinatorRestart: a worker that consumed a
// coordinator's announcements must still run the first announcement of a
// restarted coordinator behind the same URL — its feed cursor stays valid.
func TestWorkerFeedSurvivesCoordinatorRestart(t *testing.T) {
	var current atomic.Pointer[http.ServeMux]
	restart := func() *dist.Coordinator {
		c := dist.NewCoordinator()
		mux := http.NewServeMux()
		c.Mount(mux)
		current.Store(mux)
		return c
	}
	coord := restart()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	svc, err := avgi.NewService(avgi.ServiceConfig{Workers: 2, Obs: avgi.NewObserver(io.Discard)})
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	stop := startWorkerPoll(svc, srv.URL, "worker-node", 0, quiet)
	defer stop()

	ran := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(svc.Requests()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("worker ran %d announced campaigns, want %d", len(svc.Requests()), n)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	coord.Announce(json.RawMessage(`{"structure":"RF","workload":"crc32","mode":"hvf","faults":4,"seed":1}`))
	ran(1)
	coord = restart()
	coord.Announce(json.RawMessage(`{"structure":"RF","workload":"crc32","mode":"hvf","faults":4,"seed":2}`))
	ran(2)
}
