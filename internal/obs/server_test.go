package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func TestHandlerUnknownPath404s(t *testing.T) {
	h := New(nil).Handler()
	for _, path := range []string{"/nope", "/metrics/extra", "/metricsjson"} {
		if rr := get(t, h, path); rr.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rr.Code)
		}
	}
}

func TestHandlerDisabledComponentBodies(t *testing.T) {
	// An all-nil observer still serves the index but reports every
	// component as disabled.
	h := (&Observer{}).Handler()
	for path, want := range map[string]string{
		"/metrics":        "metrics disabled",
		"/metrics.json":   "metrics disabled",
		"/progress.json":  "progress disabled",
		"/trace.json":     "tracing disabled",
		"/forensics.json": "forensics disabled",
	} {
		rr := get(t, h, path)
		if rr.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rr.Code)
		}
		if got := strings.TrimSpace(rr.Body.String()); got != want {
			t.Errorf("GET %s: body %q, want %q", path, got, want)
		}
	}
}

func TestHandlerContentTypes(t *testing.T) {
	o := New(nil)
	o.Forensics = jsonSourceFunc(func(w io.Writer) error {
		_, err := io.WriteString(w, `{"entries":[]}`)
		return err
	})
	h := o.Handler()
	for path, want := range map[string]string{
		"/":               "text/html; charset=utf-8",
		"/metrics":        "text/plain; version=0.0.4; charset=utf-8",
		"/metrics.json":   "application/json",
		"/progress.json":  "application/json",
		"/trace.json":     "application/json",
		"/forensics.json": "application/json",
	} {
		rr := get(t, h, path)
		if rr.Code != http.StatusOK {
			t.Errorf("GET %s: %d", path, rr.Code)
		}
		if got := rr.Header().Get("Content-Type"); got != want {
			t.Errorf("GET %s: Content-Type %q, want %q", path, got, want)
		}
	}
}

type jsonSourceFunc func(io.Writer) error

func (f jsonSourceFunc) WriteJSON(w io.Writer) error { return f(w) }

func TestHandlerServesForensicsBody(t *testing.T) {
	o := &Observer{Forensics: jsonSourceFunc(func(w io.Writer) error {
		_, err := io.WriteString(w, `{"causes":[],"entries":[]}`)
		return err
	})}
	rr := get(t, o.Handler(), "/forensics.json")
	if rr.Body.String() != `{"causes":[],"entries":[]}` {
		t.Errorf("body %q", rr.Body.String())
	}
}

// TestCloseDrainsInFlightRequest is the regression test for the hard-drop
// shutdown: Server.Close used to call http.Server.Close, which severed
// in-flight responses (a /metrics scrape mid-body) with an ECONNRESET.
// With graceful drain the client must receive the complete body and Close
// must still return promptly once the handler finishes.
func TestCloseDrainsInFlightRequest(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained-ok")
	}))
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{body: string(b), err: err}
	}()

	<-entered // the request is now in flight
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Close must wait for the handler, not kill the connection.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a request was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New connections are refused once shutdown begins.
	waitRefused(t, srv.Addr())

	close(release)
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed across Close: %v", r.err)
	}
	if r.body != "drained-ok" {
		t.Errorf("in-flight body = %q, want %q", r.body, "drained-ok")
	}
}

// waitRefused polls until dialing addr fails — the listener closes
// asynchronously relative to Shutdown's return, so a single probe races.
func waitRefused(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return
		}
		c.Close()
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("listener still accepting connections after Shutdown began")
}

// TestCloseHardDropsAfterDrainTimeout: a handler that never returns must
// not wedge Close forever — after the drain deadline the connections are
// dropped hard and Close returns.
func TestCloseHardDropsAfterDrainTimeout(t *testing.T) {
	entered := make(chan struct{})
	stuck := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-stuck
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer close(stuck)
	srv.SetDrainTimeout(50 * time.Millisecond)

	go http.Get("http://" + srv.Addr() + "/")
	<-entered

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a handler that never returns")
	}
}

func TestHandlerMountsPprof(t *testing.T) {
	h := (&Observer{}).Handler()
	rr := get(t, h, "/debug/pprof/")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
	if rr := get(t, h, "/debug/pprof/goroutine"); rr.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/goroutine: %d", rr.Code)
	}
}
