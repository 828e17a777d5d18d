package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/journal"
	"avgi/internal/prog"
)

// fakeClock is a settable clock for lease-staleness tests: takeover
// scenarios run instantly instead of sleeping through real TTLs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// leaserContract runs the semantics every Leaser implementation must share.
func leaserContract(t *testing.T, l Leaser, advance func(time.Duration)) {
	t.Helper()
	const ttl = 10 * time.Second

	// First-writer-wins; a live lease refuses other owners.
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("fresh acquire: ok=%v err=%v", ok, err)
	}
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "bob", ttl); err != nil || ok {
		t.Fatalf("acquire of a live foreign lease: ok=%v err=%v", ok, err)
	}
	// The holder itself renews.
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("holder re-acquire must renew: ok=%v err=%v", ok, err)
	}
	// Heartbeat by the holder extends; by a stranger against a live lease
	// it fails.
	if err := l.Heartbeat("shard.chunk-000000-000010", "alice", ttl); err != nil {
		t.Fatalf("holder heartbeat: %v", err)
	}
	if err := l.Heartbeat("shard.chunk-000000-000010", "bob", ttl); err == nil {
		t.Fatal("stranger heartbeat against a live lease must fail")
	}

	// Stale takeover: past the TTL the lease is free to anyone.
	advance(ttl + time.Second)
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "bob", ttl); err != nil || !ok {
		t.Fatalf("stale takeover: ok=%v err=%v", ok, err)
	}
	if ok, _ := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); ok {
		t.Fatal("the deposed owner must not re-acquire a live stolen lease")
	}

	// Release done=false frees the resource.
	if err := l.Release("shard.chunk-000000-000010", "bob", false); err != nil {
		t.Fatalf("release: %v", err)
	}
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}

	// Release done=true is permanent: no owner may ever claim again.
	if err := l.Release("shard.chunk-000000-000010", "alice", true); err != nil {
		t.Fatalf("done release: %v", err)
	}
	for _, owner := range []string{"alice", "carol"} {
		if ok, err := l.TryAcquire("shard.chunk-000000-000010", owner, ttl); err != nil || ok {
			t.Fatalf("a done resource must refuse every acquire: %s ok=%v err=%v", owner, ok, err)
		}
	}

	// Reset clears both leases and done markers under the prefix — and
	// nothing else.
	if ok, _ := l.TryAcquire("shard.merge", "alice", ttl); !ok {
		t.Fatal("merge lease acquire")
	}
	if err := l.Reset("shard.chunk-"); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "carol", ttl); err != nil || !ok {
		t.Fatalf("done marker must not survive Reset of its prefix: ok=%v err=%v", ok, err)
	}
	if ok, _ := l.TryAcquire("shard.merge", "bob", ttl); ok {
		t.Fatal("Reset of chunk prefix must not free the merge lease")
	}
}

func TestFileLeaserContract(t *testing.T) {
	clk := newFakeClock()
	l := NewFileLeaser(filepath.Join(t.TempDir(), "leases"))
	l.SetClock(clk.Now)
	leaserContract(t, l, clk.Advance)
}

func TestCoordinatorContract(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator()
	c.SetClock(clk.Now)
	leaserContract(t, c, clk.Advance)
}

func TestHTTPLeaserContract(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator()
	c.SetClock(clk.Now)
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	leaserContract(t, NewHTTPLeaser(srv.URL), clk.Advance)
}

func TestFileLeaserTornAndEmptyLeases(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leases")
	l := NewFileLeaser(dir)
	var expired atomic.Int64
	l.SetHooks(nil, func() { expired.Add(1) })

	for _, body := range []string{"", "{\"owner\":\"ali", "not json at all"} {
		name := fmt.Sprintf("torn-%d", len(body))
		path := l.leasePath(name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		// A torn or empty lease record — a claimant crashed mid-create —
		// is indistinguishable from abandonment and must read as free.
		if ok, err := l.TryAcquire(name, "bob", time.Minute); err != nil || !ok {
			t.Fatalf("lease with body %q: ok=%v err=%v (torn leases must be free)", body, ok, err)
		}
	}
	if expired.Load() != 0 {
		t.Error("torn leases must not count as expired (they never had a valid expiry)")
	}
}

func TestFileLeaserTakeoverHooks(t *testing.T) {
	clk := newFakeClock()
	l := NewFileLeaser(filepath.Join(t.TempDir(), "leases"))
	l.SetClock(clk.Now)
	var stolen, expired atomic.Int64
	l.SetHooks(func() { stolen.Add(1) }, func() { expired.Add(1) })

	if ok, _ := l.TryAcquire("x", "alice", time.Second); !ok {
		t.Fatal("seed acquire")
	}
	clk.Advance(2 * time.Second)
	if ok, _ := l.TryAcquire("x", "bob", time.Second); !ok {
		t.Fatal("stale takeover")
	}
	if stolen.Load() != 1 || expired.Load() != 1 {
		t.Errorf("takeover hooks: stolen=%d expired=%d, want 1/1", stolen.Load(), expired.Load())
	}
}

// TestFileLeaserRace pins the O_EXCL arbitration: many goroutines racing
// one fresh lease yield exactly one winner, and racing one *stale* lease
// (the tombstone-rename path) also yields exactly one winner.
func TestFileLeaserRace(t *testing.T) {
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "leases")

	race := func(name string) int {
		const racers = 16
		var wins atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l := NewFileLeaser(dir) // one leaser per "process"
				l.SetClock(clk.Now)
				<-start
				if ok, err := l.TryAcquire(name, fmt.Sprintf("racer-%02d", i), time.Minute); err != nil {
					t.Errorf("racer %d: %v", i, err)
				} else if ok {
					wins.Add(1)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		return int(wins.Load())
	}

	if w := race("fresh"); w != 1 {
		t.Errorf("%d winners racing a fresh lease, want exactly 1", w)
	}

	// Seed a stale lease, then race the takeover.
	seed := NewFileLeaser(dir)
	seed.SetClock(clk.Now)
	if ok, _ := seed.TryAcquire("stale", "dead-node", time.Second); !ok {
		t.Fatal("seed stale lease")
	}
	clk.Advance(time.Hour)
	if w := race("stale"); w != 1 {
		t.Errorf("%d winners racing a stale takeover, want exactly 1", w)
	}
}

// TestCoordinatorRestart pins the recovery story: the coordinator holds
// lease state in memory only, and a worker's heartbeat re-creates its
// leases on a restarted (empty) coordinator before any rival can claim.
func TestCoordinatorRestart(t *testing.T) {
	var current atomic.Pointer[http.ServeMux]
	mount := func(c *Coordinator) {
		mux := http.NewServeMux()
		c.Mount(mux)
		current.Store(mux)
	}
	mount(NewCoordinator())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	l := NewHTTPLeaser(srv.URL)
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", time.Minute); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}

	// Coordinator dies and restarts empty mid-campaign.
	mount(NewCoordinator())

	// The worker's next heartbeat re-establishes ownership...
	if err := l.Heartbeat("shard.chunk-000000-000010", "alice", time.Minute); err != nil {
		t.Fatalf("heartbeat against restarted coordinator: %v", err)
	}
	// ...so a rival arriving afterwards is refused exactly as before.
	if ok, _ := l.TryAcquire("shard.chunk-000000-000010", "bob", time.Minute); ok {
		t.Error("restarted coordinator granted a lease its heartbeating owner had re-created")
	}
}

// --- dist.Run integration -------------------------------------------------

func newDistRunner(t *testing.T) *campaign.Runner {
	t.Helper()
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigA72()
	r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func distKey() journal.Key {
	return journal.Key{Structure: "RF", Workload: "crc32", Mode: "hvf"}
}

func distBind(faults int) journal.Binding {
	return journal.Binding{Machine: "a72", Variant: "base", ProgramHash: 0xfeed, Seed: 5, Faults: faults}
}

// runFleet executes one campaign as n concurrent in-process "nodes" —
// goroutines with distinct owners sharing a journal directory — and
// returns each node's view plus the canonical shard bytes after merge.
func runFleet(t *testing.T, r *campaign.Runner, n int) ([]byte, [][]campaign.Result) {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faults := r.FaultList("RF", 24, 5)
	key, bind := distKey(), distBind(len(faults))

	views := make([][]campaign.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			views[node], errs[node] = Run(Config{
				Journal:      j,
				Owner:        fmt.Sprintf("node-%d", node),
				Fleet:        2 * n,
				LocalWorkers: 2,
				TTL:          2 * time.Second,
				Poll:         10 * time.Millisecond,
				Sync:         journal.SyncEvery,
			}, r, faults, key, bind, campaign.ModeHVF, 0)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	// The canonical shard must exist, be complete, and stand alone — the
	// merge removes every part.
	if hasParts, err := j.HasParts(key, bind); err != nil || hasParts {
		t.Fatalf("after merge: hasParts=%v err=%v", hasParts, err)
	}
	canon := filepath.Join(dir, filepath.FromSlash(j.ShardID(key, bind)))
	data, err := os.ReadFile(canon)
	if err != nil {
		t.Fatalf("canonical shard: %v", err)
	}
	return data, views
}

// TestDistRunByteIdentity is the tentpole guarantee: the merged canonical
// shard is byte-identical whether the campaign ran on one, two or four
// nodes, and every node's returned results equal the plain in-process run.
func TestDistRunByteIdentity(t *testing.T) {
	r := newDistRunner(t)
	faults := r.FaultList("RF", 24, 5)
	serial := r.Run(faults, campaign.ModeHVF, 0, 2)

	var ref []byte
	for _, nodes := range []int{1, 2, 4} {
		data, views := runFleet(t, r, nodes)
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Errorf("%d-node canonical shard differs from the 1-node shard (%d vs %d bytes)",
				nodes, len(data), len(ref))
		}
		for node, view := range views {
			if !reflect.DeepEqual(view, serial) {
				t.Errorf("%d-node fleet, node %d: merged view diverges from the serial run", nodes, node)
			}
		}
	}
}

// TestDistRunDeadNodeTakeover is the SIGKILL story: a node that journalled
// part of its work and died (stale leases, orphaned part shard) must not
// stall the fleet — a fresh node takes its chunks over after the TTL and
// the merge still folds the dead node's durable results in byte-identically.
func TestDistRunDeadNodeTakeover(t *testing.T) {
	r := newDistRunner(t)
	faults := r.FaultList("RF", 24, 5)
	key, bind := distKey(), distBind(len(faults))
	serial := r.Run(faults, campaign.ModeHVF, 0, 2)

	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The dead node journalled its first chunk before dying...
	pw, err := j.PartWriter(key, bind, "dead-node", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pw.Append(i, serial[i])
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and died holding chunk leases that have since gone stale, plus a
	// torn lease from a crash mid-heartbeat.
	past := newFakeClock()
	stale := NewFileLeaser(filepath.Join(dir, "leases"))
	stale.SetClock(past.Now)
	shard := j.ShardID(key, bind)
	if ok, _ := stale.TryAcquire(chunkLease(shard, 0, 3), "dead-node", time.Millisecond); !ok {
		t.Fatal("seed stale lease")
	}
	torn := stale.leasePath(chunkLease(shard, 3, 6))
	if err := os.WriteFile(torn, []byte("{\"owner\":\"dead"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Run(Config{
		Journal:      j,
		Owner:        "survivor",
		Fleet:        4,
		LocalWorkers: 2,
		TTL:          time.Second,
		Poll:         10 * time.Millisecond,
	}, r, faults, key, bind, campaign.ModeHVF, 0)
	if err != nil {
		t.Fatalf("survivor run: %v", err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatal("survivor's merged view diverges from the serial run")
	}

	canon, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(shard)))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runFleet(t, r, 1)
	if !bytes.Equal(canon, ref) {
		t.Error("canonical shard after dead-node takeover differs from a clean single-node run")
	}
}

// TestDistRunCoordinatorLeaser runs a two-node fleet arbitrated by an HTTP
// coordinator instead of lease files — the topology for workers that share
// a journal mount but no coordinator-free consensus.
func TestDistRunCoordinatorLeaser(t *testing.T) {
	r := newDistRunner(t)
	faults := r.FaultList("RF", 24, 5)
	key, bind := distKey(), distBind(len(faults))
	serial := r.Run(faults, campaign.ModeHVF, 0, 2)

	c := NewCoordinator()
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	views := make([][]campaign.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			views[node], errs[node] = Run(Config{
				Journal:      j,
				Leaser:       NewHTTPLeaser(srv.URL),
				Owner:        fmt.Sprintf("node-%d", node),
				Fleet:        4,
				LocalWorkers: 2,
				TTL:          2 * time.Second,
				Poll:         10 * time.Millisecond,
			}, r, faults, key, bind, campaign.ModeHVF, 0)
		}(node)
	}
	wg.Wait()
	for node := range errs {
		if errs[node] != nil {
			t.Fatalf("node %d: %v", node, errs[node])
		}
		if !reflect.DeepEqual(views[node], serial) {
			t.Errorf("node %d: coordinator-arbitrated view diverges from the serial run", node)
		}
	}
	ref, _ := runFleet(t, r, 1)
	canon, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(j.ShardID(key, bind))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, ref) {
		t.Error("coordinator-fleet canonical shard differs from the file-lease fleet's")
	}
}

// TestCoordinatorAnnounceFeed covers the campaign fan-out feed used by
// worker-mode avgid processes.
func TestCoordinatorAnnounceFeed(t *testing.T) {
	c := NewCoordinator()
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	l := NewHTTPLeaser(srv.URL)

	if err := l.Register("worker-1"); err != nil {
		t.Fatalf("register: %v", err)
	}
	specA := json.RawMessage(`{"workload":"crc32","structure":"RF"}`)
	specB := json.RawMessage(`{"workload":"matmul","structure":"LSQ"}`)
	idA, err := l.Announce(specA)
	if err != nil || idA == 0 {
		t.Fatalf("announce A: id=%d err=%v", idA, err)
	}
	if again, _ := l.Announce(specA); again != idA {
		t.Errorf("byte-identical re-announce minted a new ID (%d vs %d)", again, idA)
	}
	idB, _ := l.Announce(specB)

	all, err := l.Campaigns(0)
	if err != nil || len(all) != 2 {
		t.Fatalf("campaigns(0): %d entries err=%v, want 2", len(all), err)
	}
	tail, _ := l.Campaigns(idA)
	if len(tail) != 1 || tail[0].ID != idB || string(tail[0].Spec) != string(specB) {
		t.Errorf("campaigns(after=%d) = %+v, want just spec B", idA, tail)
	}

	// The nodes listing reflects registration.
	resp, err := http.Get(srv.URL + "/v1/dist/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nodes []struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Node != "worker-1" {
		t.Errorf("nodes = %+v, want worker-1", nodes)
	}
}

// TestCoordinatorFeedBounded: the fan-out feed keeps only the newest
// feedRetained announcements, and the dedup forgets a spec together with its
// entry, so a long-lived coordinator's feed neither grows nor slows down.
func TestCoordinatorFeedBounded(t *testing.T) {
	c := NewCoordinator()
	spec := func(i int) json.RawMessage { return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i)) }
	for i := 1; i <= 2*feedRetained; i++ {
		if id := c.Announce(spec(i)); id != i {
			t.Fatalf("announcement %d got ID %d", i, id)
		}
	}
	all := c.Campaigns(0)
	if len(all) != feedRetained {
		t.Fatalf("Campaigns(0) returned %d announcements, want %d", len(all), feedRetained)
	}
	for k, a := range all {
		if want := feedRetained + 1 + k; a.ID != want || string(a.Spec) != string(spec(want)) {
			t.Fatalf("entry %d is #%d %s, want #%d", k, a.ID, a.Spec, want)
		}
	}
	if id := c.Announce(spec(2 * feedRetained)); id != 2*feedRetained {
		t.Errorf("a spec still in the feed was re-announced as #%d, want #%d", id, 2*feedRetained)
	}
	if id := c.Announce(spec(1)); id != 2*feedRetained+1 {
		t.Errorf("a spec dropped from the feed was re-announced as #%d, want the new #%d", id, 2*feedRetained+1)
	}
	if tail := c.Campaigns(2 * feedRetained); len(tail) != 1 || tail[0].ID != 2*feedRetained+1 {
		t.Errorf("Campaigns(%d) = %+v, want just the re-announcement", 2*feedRetained, tail)
	}
}
