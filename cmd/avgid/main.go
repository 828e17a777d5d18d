// Command avgid is the assessment-as-a-service daemon: a long-running
// HTTP server that answers vulnerability-assessment requests over the
// durable journal cache. A request that is fully journalled is answered
// straight from shard loads with zero simulation; concurrent identical
// requests coalesce onto one execution; cache misses simulate under the
// requesting tenant's share of one global worker budget, so a single
// tenant's 100k-fault campaign can never starve everyone else's
// cache-miss traffic. See docs/SERVICE.md for the API and semantics.
//
// Usage:
//
//	avgid [flags]
//
// Endpoints:
//
//	POST /v1/assess             run (or answer from cache) one assessment
//	GET  /v1/requests           request registry, newest first
//	GET  /v1/requests/{id}      one registry entry
//	GET  /v1/requests/{id}/watch  NDJSON live progress until the request ends
//	GET  /metrics, /progress.json, /trace.json, /debug/pprof/, ...  telemetry
//
// Example:
//
//	avgid -addr :8080 -journal /var/cache/avgid &
//	curl -s localhost:8080/v1/assess -d '{"structure":"RF","workload":"sha","mode":"hvf","faults":200}'
//
// SIGTERM or SIGINT drains gracefully: the listener closes immediately,
// in-flight assessments get -drain-timeout to finish, then the process
// exits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"avgi"
	"avgi/internal/cliflags"
	"avgi/internal/clilog"
	"avgi/internal/dist"
	"avgi/internal/obs"
)

var serverFlags = cliflags.RegisterServer(flag.CommandLine)

func main() {
	flag.Parse()
	logger, err := clilog.New(os.Stderr, "avgid", serverFlags.Log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgid:", err)
		os.Exit(2)
	}
	if err := serverFlags.ValidateDist(); err != nil {
		logger.Error(err.Error())
		os.Exit(2)
	}
	distCfg := distConfig(serverFlags)
	obsv := avgi.NewObserver(os.Stderr)
	svc, err := avgi.NewService(avgi.ServiceConfig{
		Workers:           serverFlags.Workers,
		JournalDir:        serverFlags.Journal,
		ShardCacheEntries: serverFlags.ShardCache,
		Dist:              distCfg,
		Obs:               obsv,
	})
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	var fleet *peer
	if distCfg != nil {
		fleet = newPeer(svc, serverFlags.Journal, logger)
	}
	srv, err := obs.NewServer(serverFlags.Addr, newHandler(svc, obsv, fleet, logger))
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	srv.SetDrainTimeout(serverFlags.DrainTimeout)
	stopHealth := obsv.StartHealth(10 * time.Second)
	defer stopHealth()
	stopPoll := func() {}
	if fleet != nil {
		stopPoll = fleet.start(serverFlags.LeaseTTL)
	}
	role := serverFlags.DistRole
	if role == "" {
		role = "standalone"
	}
	// The bound address goes to stdout (not the log) so scripts starting
	// the server on :0 can read the ephemeral port.
	fmt.Printf("avgid listening on http://%s/ (workers %d, tenant cap %d, journal %q, role %s)\n",
		srv.Addr(), svc.Budget().Cap(), svc.TenantCap(), serverFlags.Journal, role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("draining", slog.String("signal", got.String()),
		slog.Duration("timeout", serverFlags.DrainTimeout))
	stopPoll()
	if err := srv.Close(); err != nil {
		logger.Error("drain: " + err.Error())
		os.Exit(1)
	}
}

// distConfig is the fleet membership of a peer, nil when standalone.
// Every peer runs its share of every campaign through lease files in the
// shared journal, and -workers means the fleet-wide worker count. The
// owner is resolved here, once, so the name labelling the node's metrics
// is the owner of its leases and part shards.
func distConfig(s *cliflags.Server) *avgi.DistConfig {
	if s.DistRole == "" {
		return nil
	}
	owner := s.DistOwner
	if owner == "" {
		owner = dist.DefaultOwner()
	}
	return &avgi.DistConfig{Fleet: s.Workers, Owner: owner, LeaseTTL: s.LeaseTTL}
}

// peer is a fleet avgid's side of the campaign feed in <journal>/feed: it
// announces every assessment it is asked for, and polls the feed to run
// the other peers' announcements. Its dist-configured Service claims chunk
// leases in the same journal, so N peers running one announced campaign
// split it instead of each running all of it.
type peer struct {
	svc    *avgi.Service
	feed   *dist.Feed
	logger *slog.Logger

	// running counts this process's in-flight assessments per feed entry.
	// The poller claims only entries at zero, and an assessment removes
	// its entry before dropping its count, both under mu — so a peer never
	// picks up the entries it announced itself.
	mu      sync.Mutex
	running map[string]int
}

func newPeer(svc *avgi.Service, journalDir string, logger *slog.Logger) *peer {
	return &peer{svc: svc, feed: dist.NewFeed(journalDir), logger: logger, running: make(map[string]int)}
}

// assess announces req on the feed — before running this peer's share, so
// the others start claiming chunks while it is in flight — and removes the
// entry once the assessment returns.
func (p *peer) assess(req avgi.AssessRequest) (*avgi.AssessResponse, error) {
	if name := p.announce(req); name != "" {
		defer p.finish(name)
	}
	return p.svc.Assess(req)
}

// announce writes req to the feed and claims the entry for this process,
// returning its name ("" when the announcement failed, which only keeps
// the campaign local). The spec is the re-marshalled decoded request, so
// byte-different but semantically identical bodies share one entry.
func (p *peer) announce(req avgi.AssessRequest) string {
	spec, _ := json.Marshal(req) // plain strings and numbers: cannot fail
	p.mu.Lock()
	defer p.mu.Unlock()
	name, err := p.feed.Announce(spec)
	if err != nil {
		p.logger.Warn("dist: announce: " + err.Error())
		return ""
	}
	p.running[name]++
	return name
}

// finish removes a feed entry whose assessment returned, with success or
// error, and drops this process's claim on it.
func (p *peer) finish(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.feed.Remove(name); err != nil {
		p.logger.Warn("dist: " + err.Error())
	}
	if p.running[name]--; p.running[name] == 0 {
		delete(p.running, name)
	}
}

// poll claims every feed entry this process is not already running and
// runs each in the background.
func (p *peer) poll() {
	p.mu.Lock()
	entries, err := p.feed.Entries()
	var claimed []dist.FeedEntry
	for _, e := range entries {
		if p.running[e.Name] == 0 {
			p.running[e.Name]++
			claimed = append(claimed, e)
		}
	}
	p.mu.Unlock()
	if err != nil {
		p.logger.Debug("dist: poll: " + err.Error())
	}
	for _, e := range claimed {
		go func(e dist.FeedEntry) {
			defer p.finish(e.Name)
			var req avgi.AssessRequest
			if err := json.Unmarshal(e.Spec, &req); err != nil {
				p.logger.Warn("dist: undecodable feed entry", slog.String("entry", e.Name), slog.String("err", err.Error()))
				return
			}
			if _, err := p.svc.Assess(req); err != nil {
				p.logger.Warn("dist: announced assessment failed",
					slog.String("entry", e.Name), slog.String("err", err.Error()))
			}
		}(e)
	}
}

// start polls the feed now and then every max(ttl/2, 500ms). The returned
// stop function ends the loop and waits for it to exit. Assessments it
// started run until they return or the process exits; one cut short
// leaves its entry in the feed and its chunks to expiring leases, so
// another peer finishes it.
func (p *peer) start(ttl time.Duration) func() {
	interval := max(ttl/2, 500*time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			p.poll()
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() { close(stop); <-done }
}

// jsonError is the uniform error body of every non-2xx API response.
type jsonError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, jsonError{Error: err.Error()})
}

// newHandler assembles the avgid mux: the assessment API in front, the
// observer's telemetry endpoints (/metrics, /progress.json, /trace.json,
// /debug/pprof/, ...) as the fallback — one server, one port.
func newHandler(svc *avgi.Service, obsv *avgi.Observer, fleet *peer, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assess", func(w http.ResponseWriter, r *http.Request) {
		var req avgi.AssessRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		assess := svc.Assess
		if fleet != nil {
			assess = fleet.assess
		}
		resp, err := assess(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Requests())
	})
	mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := requestByPath(svc, r)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such request"))
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/requests/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		info, ok := requestByPath(svc, r)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such request"))
			return
		}
		watchRequest(svc, obsv, info.ID, w, r)
	})
	mux.Handle("/", obsv.Handler())
	return recoverJSON(limitBodies(mux), logger)
}

// maxBodyBytes bounds every request body the server reads. The only POST
// it serves, an assessment request, is a few hundred bytes.
const maxBodyBytes = 1 << 20

// limitBodies caps the request body of every endpoint behind it, so a
// decoder fails with a 4xx at maxBodyBytes instead of buffering whatever a
// client sends.
func limitBodies(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(w, r)
	})
}

func requestByPath(svc *avgi.Service, r *http.Request) (avgi.RequestInfo, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return avgi.RequestInfo{}, false
	}
	return svc.Request(id)
}

// watchFrame is one NDJSON line of a /watch stream: the request's current
// registry state plus the live progress of its campaign pair (present
// while the pair is announced; journal hits may never announce one). A
// pair is keyed by (structure, workload, mode), so it totals every
// campaign running on that triple, not just this request's.
type watchFrame struct {
	ID    uint64            `json:"id"`
	State avgi.RequestState `json:"state"`
	Error string            `json:"error,omitempty"`
	Pair  *obs.PairProgress `json:"pair,omitempty"`
	Study *watchTotals      `json:"totals,omitempty"`
}

// watchTotals is the service-wide fault completion state shown alongside
// the watched pair.
type watchTotals struct {
	FaultsDone  int64 `json:"faultsDone"`
	FaultsTotal int64 `json:"faultsTotal"`
}

// watchPollInterval paces /watch streams; short enough to feel live, long
// enough that a watcher costs nothing next to a campaign.
const watchPollInterval = 200 * time.Millisecond

// watchRequest streams one frame per poll until the watched request leaves
// the running state (one final frame carries the terminal state), the
// client goes away, or the server drains.
func watchRequest(svc *avgi.Service, obsv *avgi.Observer, id uint64, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(watchPollInterval)
	defer ticker.Stop()
	for {
		info, ok := svc.Request(id)
		if !ok {
			return
		}
		frame := watchFrame{ID: info.ID, State: info.State, Error: info.Error}
		if obsv != nil && obsv.Progress != nil {
			snap := obsv.Progress.Snapshot()
			req := info.Request
			for i := range snap.Pairs {
				p := snap.Pairs[i]
				if p.Structure == req.Structure && p.Workload == req.Workload && p.Mode == req.Mode {
					frame.Pair = &p
					break
				}
			}
			frame.Study = &watchTotals{
				FaultsDone:  snap.FaultsDone,
				FaultsTotal: snap.FaultsTotal,
			}
		}
		if err := enc.Encode(frame); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if info.State != avgi.StateRunning {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// recoverJSON converts handler panics (a campaign invariant violation, a
// broken runner) into JSON 500s instead of killing the connection with a
// bare stack trace, and logs them.
func recoverJSON(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				if logger != nil {
					logger.Error("panic serving request",
						slog.String("path", r.URL.Path), slog.String("panic", fmt.Sprint(p)))
				}
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}
