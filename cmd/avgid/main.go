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
	"syscall"
	"time"

	"avgi"
	"avgi/internal/cliflags"
	"avgi/internal/clilog"
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
	// Both distributed roles run their own campaigns as fleet shares:
	// -workers means the fleet-wide worker count, the coordinator leases
	// in-process while workers lease through its /v1/dist endpoints.
	var coord *avgi.DistCoordinator
	var distCfg *avgi.DistConfig
	switch serverFlags.DistRole {
	case "coordinator":
		coord = avgi.NewDistCoordinator()
		distCfg = &avgi.DistConfig{Fleet: serverFlags.Workers, Owner: serverFlags.DistOwner,
			LeaseTTL: serverFlags.LeaseTTL}
		distCfg.UseCoordinator(coord)
	case "worker":
		distCfg = &avgi.DistConfig{Fleet: serverFlags.Workers, Owner: serverFlags.DistOwner,
			Coordinator: serverFlags.Coordinator, LeaseTTL: serverFlags.LeaseTTL}
	}
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
	srv, err := obs.NewServer(serverFlags.Addr, newHandler(svc, obsv, coord, logger))
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	srv.SetDrainTimeout(serverFlags.DrainTimeout)
	stopHealth := obsv.StartHealth(10 * time.Second)
	defer stopHealth()
	stopWorker := func() {}
	if serverFlags.DistRole == "worker" {
		stopWorker = startWorkerPoll(svc, serverFlags.Coordinator, workerOwner(), serverFlags.LeaseTTL, logger)
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
	stopWorker()
	if err := srv.Close(); err != nil {
		logger.Error("drain: " + err.Error())
		os.Exit(1)
	}
}

// workerOwner derives this process's fleet identity when -dist-owner is
// unset, mirroring the dist layer's default.
func workerOwner() string {
	if serverFlags.DistOwner != "" {
		return serverFlags.DistOwner
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "avgid"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// startWorkerPoll launches the worker-mode fan-out loop: register with the
// coordinator, poll its campaign feed, and run every announced assessment
// against the shared journal — the worker's dist-configured Service then
// claims chunk leases through the same coordinator, so N workers polling
// one feed split each campaign instead of each running all of it. The
// returned stop function ends the loop and waits for it to exit (in-flight
// assessments keep running; the server drain handles those).
func startWorkerPoll(svc *avgi.Service, coordinator, owner string, ttl time.Duration, logger *slog.Logger) func() {
	interval := ttl / 2
	if interval < 500*time.Millisecond {
		interval = 500 * time.Millisecond
	}
	client := avgi.NewDistClient(coordinator)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		after := 0
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			// Registration doubles as the node's liveness heartbeat in the
			// coordinator's /v1/dist/nodes listing.
			if err := client.Register(owner); err != nil {
				logger.Debug("dist: register: " + err.Error())
			}
			anns, err := client.Campaigns(after)
			if err != nil {
				logger.Debug("dist: poll: " + err.Error())
			}
			for _, a := range anns {
				after = a.ID
				var req avgi.AssessRequest
				if err := json.Unmarshal(a.Spec, &req); err != nil {
					logger.Warn("dist: undecodable announcement", slog.Int("id", a.ID), slog.String("err", err.Error()))
					continue
				}
				go func(id int, req avgi.AssessRequest) {
					if _, err := svc.Assess(req); err != nil {
						logger.Warn("dist: announced assessment failed",
							slog.Int("id", id), slog.String("err", err.Error()))
					}
				}(a.ID, req)
			}
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
func newHandler(svc *avgi.Service, obsv *avgi.Observer, coord *avgi.DistCoordinator, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	if coord != nil {
		coord.Mount(mux)
	}
	mux.HandleFunc("POST /v1/assess", func(w http.ResponseWriter, r *http.Request) {
		var req avgi.AssessRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if coord != nil {
			// Fan the campaign out before running our own share: polling
			// workers see it on the feed and start claiming chunks while
			// this request's assessment is still in flight. The spec is the
			// re-marshalled decoded request, so retries of byte-different
			// but semantically identical bodies dedup on the feed.
			if spec, err := json.Marshal(req); err == nil {
				coord.Announce(spec)
			}
		}
		resp, err := svc.Assess(req)
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

// maxBodyBytes bounds every request body the server reads. The largest
// legitimate one, a campaign spec announced to the coordinator, is a few
// hundred bytes.
const maxBodyBytes = 1 << 20

// limitBodies caps the request body of every endpoint behind it — the
// assessment API and the coordinator's lease/register/campaigns POSTs — so
// a decoder fails with a 4xx at maxBodyBytes instead of buffering whatever
// a client sends.
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
// while the pair is announced; journal hits may never announce one).
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
