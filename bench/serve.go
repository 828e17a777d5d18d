package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"avgi"
)

// The assess-serve key space: 4 structures x 3 programs x serveSeeds
// seeds. At full scale that is 120 keys against avgid's 64-entry decoded
// shard LRU, with a 16-key hot set.
var (
	serveStructures = []string{"RF", "L1D (Data)", "L1I (Data)", "L2 (Tag)"}
	servePrograms   = []string{"sha", "crc32", "qsort"}
)

const (
	shardCacheEntries = 64
	avgidStartTimeout = 20 * time.Second
	avgidStopTimeout  = 20 * time.Second
)

// avgidProc is a running avgid child.
type avgidProc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	errPath  string // the child's stderr
	drained  chan struct{}
	stdout   *os.File
	client   *http.Client
	stopOnce sync.Once
	stopErr  error
}

var listenLine = regexp.MustCompile(`listening on (http://[^/ ]+)/`)

// buildAvgid compiles cmd/avgid into dir and returns the binary's path.
func buildAvgid(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "avgid")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "avgi/cmd/avgid")
	cmd.Env = append(os.Environ(), "GOTMPDIR="+dir) // keep the toolchain's work files in the checkout too
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build avgi/cmd/avgid: %v\n%s", err, out)
	}
	return bin, nil
}

// startAvgid launches the server on an ephemeral port and waits for the
// line announcing its address. The child is sent SIGTERM when ctx ends.
func startAvgid(ctx context.Context, bin, dir string) (*avgidProc, error) {
	a := &avgidProc{errPath: filepath.Join(dir, "avgid.stderr"), drained: make(chan struct{})}
	errFile, err := os.Create(a.errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	a.stdout = r
	a.cmd = exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "journal"),
		"-workers", strconv.Itoa(procs),
		"-shard-cache", strconv.Itoa(shardCacheEntries))
	a.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	a.cmd.Stdout = w
	a.cmd.Stderr = errFile
	a.cmd.Cancel = func() error { return a.cmd.Process.Signal(syscall.SIGTERM) }
	a.cmd.WaitDelay = avgidStopTimeout
	if err := a.cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("starting avgid: %w", err)
	}
	w.Close()

	line := make(chan string, 1)
	go func() {
		defer close(a.drained)
		br := bufio.NewReader(r)
		first, _ := br.ReadString('\n')
		line <- first
		io.Copy(io.Discard, br) // until the child exits
	}()
	select {
	case first := <-line:
		m := listenLine.FindStringSubmatch(first)
		if m == nil {
			a.stop()
			return nil, fmt.Errorf("avgid did not announce an address (stdout %q)\n%s", first, a.stderrTail())
		}
		a.base = m[1]
	case <-time.After(avgidStartTimeout):
		a.stop()
		return nil, fmt.Errorf("avgid did not start within %v\n%s", avgidStartTimeout, a.stderrTail())
	}
	a.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: procs}}
	return a, nil
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain overruns. It is safe to call more than once.
func (a *avgidProc) stop() error {
	a.stopOnce.Do(func() {
		if a.client != nil {
			a.client.CloseIdleConnections()
		}
		a.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- a.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				a.stopErr = fmt.Errorf("avgid exit: %v\n%s", err, a.stderrTail())
			}
		case <-time.After(avgidStopTimeout):
			a.cmd.Process.Kill()
			<-done
			a.stopErr = fmt.Errorf("avgid ignored SIGTERM for %v and was killed\n%s", avgidStopTimeout, a.stderrTail())
		}
		<-a.drained
		a.stdout.Close()
	})
	return a.stopErr
}

func (a *avgidProc) stderrTail() string {
	data, err := os.ReadFile(a.errPath)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return "avgid stderr: " + string(data)
}

// wireResponse is the part of an AssessResponse the checks look at; the
// result object is kept as sent so that hits can be compared byte for byte
// with the cold response.
type wireResponse struct {
	Result json.RawMessage `json:"result"`
	Meta   avgi.AssessMeta `json:"meta"`
}

// assess posts one request and returns the parsed response and the time
// from sending to the last byte of the body.
func (a *avgidProc) assess(ctx context.Context, req avgi.AssessRequest) (*wireResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/v1/assess", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := a.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var wr wireResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, d, err
	}
	return &wr, d, nil
}

// shardCacheHits reads the decoded-shard LRU hit counter from /metrics.
func (a *avgidProc) shardCacheHits(ctx context.Context) (float64, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := a.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "avgi_server_shard_cache_hits_total"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, sc.Err()
}

// serveKey is one distinct assessment and the digest of its cold result.
type serveKey struct {
	req  avgi.AssessRequest
	cold [sha256.Size]byte
}

func serveRequest(structure, program string, faults int, seed int64) avgi.AssessRequest {
	return avgi.AssessRequest{Structure: structure, Workload: program, Mode: "avgi",
		Window: gridWindow, Faults: faults, Seed: seed}
}

// served is the expectation a response is checked against.
type served int

const (
	simulated served = iota // a miss: every fault simulated, none resumed
	cached                  // a hit: answered from LRU or journal, nothing simulated
)

// serveSession is the set-up product of assess-serve plus its run state.
type serveSession struct {
	e       *env
	srv     *avgidProc
	buildS  float64
	keys    []serveKey
	fresh   atomic.Int64 // fresh-miss seeds handed out
	jcursor atomic.Int64 // cyclic cursor of the mix's journal requests
}

// do sends one request, applies the output checks and records a span.
func (s *serveSession) do(phase string, k *serveKey, want served) (time.Duration, bool) {
	h := s.e.rec.begin("avgid.request", phase, -1)
	resp, d, err := s.srv.assess(s.e.ctx, k.req)
	s.e.rec.end(h)
	s.e.chk.attempt(1)
	problem := ""
	if err != nil {
		problem = err.Error()
	} else {
		sum := sha256.Sum256(resp.Result)
		miss := !resp.Meta.JournalHit && resp.Meta.SimulatedFaults == k.req.Faults
		hit := resp.Meta.JournalHit && resp.Meta.SimulatedFaults == 0
		switch {
		case want == simulated && !miss:
			problem = fmt.Sprintf("expected a simulated miss, meta %+v", resp.Meta)
		case want == simulated:
			k.cold = sum
		case !hit:
			problem = fmt.Sprintf("expected a cache hit, meta %+v", resp.Meta)
		case sum != k.cold:
			problem = "result bytes differ from the cold response"
		}
	}
	if problem != "" {
		s.e.chk.fail("%s %s/%s seed %d: %s", phase, k.req.Structure, k.req.Workload, k.req.Seed, problem)
		return d, false
	}
	return d, true
}

// startSession is one set-up: build avgid, start it, and pay the lazy
// golden runs with one throwaway request per program.
func startSession(e *env, n int) (*serveSession, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("serve-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	bin, err := buildAvgid(e.ctx, dir)
	if err != nil {
		return nil, err
	}
	buildS := seconds(time.Since(t0))
	srv, err := startAvgid(e.ctx, bin, dir)
	if err != nil {
		return nil, err
	}
	s := &serveSession{e: e, srv: srv, buildS: buildS}
	for _, program := range servePrograms {
		k := serveKey{req: serveRequest("RF", program, 2, 1)}
		if _, ok := s.do("first-touch", &k, simulated); !ok {
			srv.stop()
			return nil, fmt.Errorf("avgid first-touch request for %s failed: %v", program, e.chk.notes)
		}
	}
	for seed := 1; seed <= e.sc.serveSeeds; seed++ {
		for _, structure := range serveStructures {
			for _, program := range servePrograms {
				s.keys = append(s.keys, serveKey{req: serveRequest(structure, program, e.sc.serveFaults, e.seed*1000+int64(seed))})
			}
		}
	}
	return s, nil
}

func (s *serveSession) close() {
	if err := s.srv.stop(); err != nil {
		s.e.chk.fail("%v", err)
	}
}

// timed runs next in a closed loop on one client until the box is spent.
func timed(box time.Duration, next func(i int) bool) {
	deadline := time.Now().Add(box)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if !next(i) {
			return
		}
	}
}

// runAssessServe drives a real avgid over HTTP in a closed loop (each
// client waits for its reply before sending again). Phases: cold fill of
// every key (fixed work: wall_s), warm hits on the hot set, journal loads
// cycling all keys past the LRU, then a two-client mix of 89 % warm, 10 %
// journal and 1 % fresh misses (ops_per_s).
func runAssessServe(e *env) (*outcome, error) {
	ctx := e.ctx
	o := &outcome{}
	n := 0
	s, times, err := setups(e, func() (*serveSession, error) {
		n++
		return startSession(e, n)
	}, (*serveSession).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.setup = times
	if len(s.keys) <= shardCacheEntries {
		return nil, fmt.Errorf("assess-serve: %d keys do not exceed the %d-entry shard LRU", len(s.keys), shardCacheEntries)
	}

	// cold: every key once, one client.
	var cold []time.Duration
	t0 := time.Now()
	for i := range s.keys {
		d, _ := s.do("cold", &s.keys[i], simulated)
		cold = append(cold, d)
	}
	coldWall := time.Since(t0)
	o.walls = []time.Duration{coldWall}

	// warm: the most recent keys, all resident in the LRU. Every second
	// request runs with the recorder off for the overhead comparison.
	hot := s.keys[len(s.keys)-e.sc.warmKeys:]
	var warm, warmOff []time.Duration
	timed(e.budget*15/100, func(i int) bool {
		e.rec.enable(i%2 == 0)
		d, ok := s.do("warm", &hot[i%len(hot)], cached)
		if i%2 == 0 {
			warm = append(warm, d)
		} else {
			warmOff = append(warmOff, d)
		}
		return ok
	})
	e.rec.enable(true)

	// journal: all keys in cyclic order. More keys than LRU entries means
	// every request misses the LRU and decodes its shard from disk; the
	// server's own counter must agree.
	hitsBefore, err := s.srv.shardCacheHits(ctx)
	if err != nil {
		return nil, err
	}
	var jrnl []time.Duration
	timed(e.budget*15/100, func(i int) bool {
		d, ok := s.do("journal", &s.keys[i%len(s.keys)], cached)
		jrnl = append(jrnl, d)
		return ok
	})
	hitsAfter, err := s.srv.shardCacheHits(ctx)
	if err != nil {
		return nil, err
	}
	e.chk.attempt(1)
	if hitsAfter != hitsBefore {
		e.chk.fail("journal phase: %v requests were served from the shard LRU, want 0", hitsAfter-hitsBefore)
	}
	for i := range hot { // make the hot set resident again, untimed
		s.do("rewarm", &hot[i], cached)
	}

	// mix: two clients, each walking its own seeded shuffle of one fixed
	// 100-request pattern, so the share of expensive misses is exact and
	// does not vary from run to run as independent draws would.
	rest := s.keys[:len(s.keys)-e.sc.warmKeys]
	var mu sync.Mutex
	var mix, mixHits []time.Duration
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*100 + int64(c)))
			pattern := rng.Perm(100) // < 89 warm, < 99 journal, 99 a fresh miss
			timed(e.budget*30/100, func(i int) bool {
				var d time.Duration
				var ok, hit bool
				switch u := pattern[i%len(pattern)]; {
				case u < 89:
					d, ok = s.do("mix-warm", &hot[rng.Intn(len(hot))], cached)
					hit = true
				case u < 99:
					d, ok = s.do("mix-journal", &rest[int(s.jcursor.Add(1))%len(rest)], cached)
				default:
					k := serveKey{req: serveRequest("RF", "sha", e.sc.serveFaults, e.seed*1000+500+s.fresh.Add(1))}
					d, ok = s.do("mix-fresh", &k, simulated)
				}
				mu.Lock()
				mix = append(mix, d)
				if hit {
					mixHits = append(mixHits, d)
				}
				mu.Unlock()
				return ok
			})
		}(c)
	}
	wg.Wait()
	mixWall := time.Since(t0)
	o.rates = []float64{float64(len(mix)) / seconds(mixWall)}
	o.lat = mix
	o.rssMB = peakRSSMB(s.srv.cmd.Process.Pid)

	hitsEnd, err := s.srv.shardCacheHits(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# assess-serve n: cold %d warm %d journal %d mix %d (%d fresh misses)\n",
		len(cold), len(warm)+len(warmOff), len(jrnl), len(mix), s.fresh.Load())
	coldMS, warmMS, jrnlMS := durationsMS(cold), durationsMS(append(warm, warmOff...)), durationsMS(jrnl)
	e.set("service.cold_ms_p50", percentile(coldMS, 50))
	e.set("service.cold_ms_p90", percentile(coldMS, 90))
	e.set("service.warm_ms_p50", percentile(warmMS, 50))
	e.set("service.warm_ms_p99", percentile(warmMS, 99))
	e.set("service.journal_ms_p50", percentile(jrnlMS, 50))
	e.set("service.journal_ms_p99", percentile(jrnlMS, 99))
	e.set("service.mix_ms_p50", percentile(durationsMS(mix), 50))
	e.set("service.mix_hit_ms_p99", percentile(durationsMS(mixHits), 99))
	e.set("service.shard_cache_hit_ratio", ratio(hitsEnd, float64(len(warm)+len(warmOff)+len(jrnl)+len(hot)+len(mix))))
	e.set("avgid.build_s", s.buildS)
	e.set("bench.trace_overhead_ratio", ratio(median(durationsMS(warm)), median(durationsMS(warmOff))))
	e.set("bench.traced_wall_s", seconds(coldWall))
	return o, nil
}
