package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/fault"
	"avgi/internal/journal"
	"avgi/internal/obs"
)

// Config describes one node's participation in a distributed campaign
// fleet. The zero value is usable given a Journal: it runs as a one-node
// fleet. Every node leases through files under <journal>/leases.
type Config struct {
	// Journal is the shared result store — the coordination substrate.
	// Required. Distributed campaigns demand a writable journal: a node
	// whose shard writes fail aborts its run (un-journalled results are
	// invisible to the fleet) instead of degrading like a single-process
	// study would.
	Journal *journal.Journal

	// Owner is this node's stable identity: stable across restarts (so a
	// resumed node reclaims its own part shard and leases) and unique
	// across live nodes (two live nodes sharing a name would interleave
	// writes in one part shard). Empty means DefaultOwner() — unique but
	// NOT restart-stable; long-lived deployments should set it.
	Owner string

	// Fleet is the cluster-wide worker count — what -workers means in
	// distributed mode. It fixes both the chunk geometry (identical on
	// every node) and the slot pool that bounds fleet-wide concurrency.
	// 0 defaults to LocalWorkers (a one-node fleet).
	Fleet int

	// LocalWorkers caps the worker slots this node may hold at once.
	// 0 defaults to min(Fleet, GOMAXPROCS).
	LocalWorkers int

	// TTL is the lease heartbeat deadline (default 10s): a node silent for
	// TTL forfeits its chunks to the fleet. Heartbeats fire every TTL/3.
	TTL time.Duration

	// Poll is the wait between claim rounds while other nodes hold chunks
	// (default TTL/4).
	Poll time.Duration

	// Sync is the part-shard fsync policy (default journal.SyncChunk; use
	// journal.SyncEvery when another node must be able to take over
	// mid-chunk work with per-fault granularity).
	Sync journal.SyncPolicy

	// Obs receives avgi_dist_* telemetry and progress logging; nil
	// disables both.
	Obs *obs.Observer
}

// chunksPerWorker is the number of chunks carved per fleet worker: more
// chunks than workers lets a fast node absorb a slow node's share at chunk
// granularity. It is part of the chunk geometry every node must agree on,
// so it is a constant, not a setting.
const chunksPerWorker = 4

// DefaultOwner is the node identity of a fleet member that sets none:
// "<hostname>-<pid>".
func DefaultOwner() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "node"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (c Config) withDefaults() Config {
	if c.Owner == "" {
		c.Owner = DefaultOwner()
	}
	if c.LocalWorkers <= 0 {
		c.LocalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Fleet <= 0 {
		c.Fleet = c.LocalWorkers
	}
	if c.LocalWorkers > c.Fleet {
		c.LocalWorkers = c.Fleet
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = c.TTL / 4
	}
	return c
}

// metrics is the node's avgi_dist_* instrument set; without a registry its
// instruments are nil and record nothing.
type metrics struct {
	faults  *obs.Counter
	rounds  *obs.Counter
	held    *obs.Gauge
	stolen  *obs.Counter
	expired *obs.Counter
	mergeS  *obs.Gauge
}

func newMetrics(o *obs.Observer, node string) *metrics {
	reg := o.Registry()
	lb := map[string]string{"node": node}
	return &metrics{
		faults: reg.Counter("avgi_dist_faults_total",
			"faults this node simulated for distributed campaigns (rate = per-node faults/s)", lb),
		rounds: reg.Counter("avgi_dist_rounds_total",
			"claim rounds this node ran across distributed campaigns", lb),
		held: reg.Gauge("avgi_dist_leases_held",
			"chunk and slot leases this node currently holds", lb),
		stolen: reg.Counter("avgi_dist_leases_stolen_total",
			"stale leases this node took over from silent owners", lb),
		expired: reg.Counter("avgi_dist_leases_expired_total",
			"expired leases this node observed while claiming", lb),
		mergeS: reg.Gauge("avgi_dist_merge_seconds",
			"wall-clock duration of this node's last shard merge", lb),
	}
}

// heartbeater renews every held lease on a TTL/3 cadence from one
// goroutine, so worker goroutines never block on lease I/O mid-chunk.
type heartbeater struct {
	l     *FileLeaser
	owner string
	ttl   time.Duration
	o     *obs.Observer
	held  *obs.Gauge

	mu    sync.Mutex
	names map[string]struct{}
	stop  chan struct{}
	done  chan struct{}
}

func newHeartbeater(l *FileLeaser, owner string, ttl time.Duration, o *obs.Observer, held *obs.Gauge) *heartbeater {
	h := &heartbeater{l: l, owner: owner, ttl: ttl, o: o, held: held,
		names: make(map[string]struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *heartbeater) add(name string) {
	h.mu.Lock()
	h.names[name] = struct{}{}
	n := len(h.names)
	h.mu.Unlock()
	h.held.Set(float64(n))
}

func (h *heartbeater) remove(name string) {
	h.mu.Lock()
	delete(h.names, name)
	n := len(h.names)
	h.mu.Unlock()
	h.held.Set(float64(n))
}

func (h *heartbeater) run() {
	defer close(h.done)
	interval := h.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.mu.Lock()
			names := make([]string, 0, len(h.names))
			for n := range h.names {
				names = append(names, n)
			}
			h.mu.Unlock()
			for _, n := range names {
				if err := h.l.Heartbeat(n, h.owner, h.ttl); err != nil {
					h.o.Logf("dist: heartbeat %s: %v", n, err)
				}
			}
		}
	}
}

func (h *heartbeater) close() {
	close(h.stop)
	<-h.done
}

// chunkLease names the lease of one chunk of one shard — identical on
// every node because shardID and the chunk geometry are.
func chunkLease(shard string, lo, hi int) string {
	return fmt.Sprintf("%s.chunk-%06d-%06d", shard, lo, hi)
}

// chunkClaimer adapts the lease files to campaign.ChunkClaimer for one
// round.
type chunkClaimer struct {
	l       *FileLeaser
	shard   string
	owner   string
	ttl     time.Duration
	hb      *heartbeater
	wfailed *atomic.Bool
	o       *obs.Observer
}

func (c *chunkClaimer) Claim(lo, hi int) (func(bool), bool) {
	name := chunkLease(c.shard, lo, hi)
	ok, err := c.l.TryAcquire(name, c.owner, c.ttl)
	if err != nil {
		c.o.Logf("dist: claim %s: %v", name, err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	c.hb.add(name)
	return func(done bool) {
		c.hb.remove(name)
		// A chunk is done only if its results are durable: a sticky shard
		// write error means our appends silently stopped, so the chunk
		// must stay claimable (by us next round, or by another node).
		if c.wfailed.Load() {
			done = false
		}
		if err := c.l.Release(name, c.owner, done); err != nil {
			c.o.Logf("dist: release %s: %v", name, err)
		}
	}, true
}

// acquireSlots claims up to want slots of the fleet-wide pool. Slot leases
// are the cluster budget: at most cfg.Fleet slots exist across all nodes
// and campaigns, each heartbeat-renewed while held and forfeited by a dead
// node after TTL.
func acquireSlots(l *FileLeaser, owner string, fleet, want int, ttl time.Duration) []string {
	var held []string
	for i := 0; i < fleet && len(held) < want; i++ {
		name := fmt.Sprintf("slots/slot-%03d", i)
		if ok, err := l.TryAcquire(name, owner, ttl); err == nil && ok {
			held = append(held, name)
		}
	}
	return held
}

// Run executes one campaign as this node's share of a distributed fleet
// and returns the complete, fleet-merged results in fault-list order.
//
// Every node of the fleet calls Run with identical (faults, key, bind,
// mode, window) — derived from the same workload, seed and fault count —
// and any node's Run returns only once the whole campaign is complete and
// merged into the canonical shard, however the work was split. The round
// loop:
//
//  1. LoadAll the shared view (canonical shard + every node's parts).
//  2. Acquire worker slots (the cluster budget), then run the campaign
//     with a lease-backed chunk claimer: chunks another live node holds
//     are skipped, chunks of dead nodes are taken over after TTL.
//  3. Completed chunks are journalled to this node's part shard and
//     marked done; if any chunk was skipped, sleep briefly and repeat —
//     the missing results are either in another node's part shard by the
//     next LoadAll, or their leases have expired and round N+1 claims
//     them.
//  4. When coverage is complete, one node wins the merge lease and folds
//     all parts into the canonical shard (byte-deterministic index
//     order); everyone else observes the finished merge and returns.
//
// A SIGKILLed node is just a resumed study: restart it (or any node) with
// the same journal and the campaign completes; its part shard's torn tail
// is truncated on resume exactly like a single-process crash.
func Run(cfg Config, r *campaign.Runner, faults []fault.Fault,
	key journal.Key, bind journal.Binding, mode campaign.Mode, window uint64) ([]campaign.Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Journal == nil {
		return nil, fmt.Errorf("dist: a shared journal is required")
	}
	if bind.Faults != len(faults) {
		return nil, fmt.Errorf("dist: binding declares %d faults, list has %d", bind.Faults, len(faults))
	}
	j := cfg.Journal
	l := NewFileLeaser(filepath.Join(j.Dir(), "leases"))
	shard := j.ShardID(key, bind)
	total := len(faults)
	met := newMetrics(cfg.Obs, cfg.Owner)
	l.SetHooks(met.stolen.Inc, met.expired.Inc)

	var prior map[int]campaign.Result
	for {
		var err error
		prior, err = j.LoadAll(key, bind)
		if err != nil {
			// A mismatched canonical header means the shard belongs to a
			// different configuration; the merge below will rewrite it.
			cfg.Obs.Logf("dist: %s: %v; treating shard as empty", shard, err)
			prior = nil
		}
		if len(prior) >= total {
			break
		}
		slots := acquireSlots(l, cfg.Owner, cfg.Fleet, cfg.LocalWorkers, cfg.TTL)
		if len(slots) == 0 {
			// The whole cluster budget is held elsewhere; wait for a slot
			// to free (or expire).
			time.Sleep(cfg.Poll)
			continue
		}
		met.rounds.Inc()
		hb := newHeartbeater(l, cfg.Owner, cfg.TTL, cfg.Obs, met.held)
		for _, s := range slots {
			hb.add(s)
		}
		pw, err := j.PartWriter(key, bind, cfg.Owner, true)
		if err != nil {
			hb.close()
			releaseSlots(l, cfg.Owner, slots)
			return nil, fmt.Errorf("dist: part shard: %w", err)
		}
		pw.SetSyncPolicy(cfg.Sync)
		var wfailed atomic.Bool
		pw.OnError(func(err error) {
			wfailed.Store(true)
			cfg.Obs.Logf("dist: %s: part write failed: %v", shard, err)
		})
		_, skipped := r.RunCampaign(campaign.RunSpec{
			Faults: faults, Mode: mode, Window: window,
			Budget:      campaign.NewBudget(len(slots)),
			Prior:       prior,
			Sink:        journal.NewChunkSink(pw, met.faults.Add),
			PlanWorkers: cfg.Fleet * chunksPerWorker,
			Claimer: &chunkClaimer{l: l, shard: shard, owner: cfg.Owner,
				ttl: cfg.TTL, hb: hb, wfailed: &wfailed, o: cfg.Obs},
		})
		closeErr := pw.Close()
		hb.close()
		releaseSlots(l, cfg.Owner, slots)
		if wfailed.Load() || closeErr != nil {
			// Un-journalled results are invisible to the fleet: fail this
			// node loudly instead of spinning on a broken disk.
			return nil, fmt.Errorf("dist: %s: journal writes failed (%v); node cannot contribute durable results", shard, closeErr)
		}
		if skipped > 0 {
			// Another node owns the rest; let it finish (or its leases
			// expire) before the next round.
			time.Sleep(cfg.Poll)
		}
	}

	if err := mergeShard(cfg, j, l, shard, key, bind, total, met); err != nil {
		return nil, err
	}
	// Re-load the post-merge view if the merge (ours or another node's)
	// could have changed the record set — it cannot, but a final coverage
	// check keeps the guarantee explicit.
	out := make([]campaign.Result, total)
	for i := 0; i < total; i++ {
		res, ok := prior[i]
		if !ok {
			return nil, fmt.Errorf("dist: %s: merged view is missing fault %d", shard, i)
		}
		out[i] = res
	}
	// Each claim round's RunCampaign left the explorer alone; the merged
	// campaign is recorded once.
	r.RecordForensics(faults, mode, out)
	return out, nil
}

func releaseSlots(l *FileLeaser, owner string, slots []string) {
	for _, s := range slots {
		l.Release(s, owner, false)
	}
}

// mergeShard consolidates parts into the canonical shard exactly once per
// fleet: one node wins the merge lease and merges; the others poll until
// the parts are gone and the canonical shard is complete. The merge lease
// is pure mutual exclusion (released, never marked done) — whether a merge
// is still needed is re-derived from the filesystem, which also makes a
// crash mid-merge self-healing: journal.Merge renames the merged shard into
// place before it unlinks any part, so the next winner either redoes the
// merge from intact parts or just removes already-folded stragglers.
func mergeShard(cfg Config, j *journal.Journal, l *FileLeaser, shard string,
	key journal.Key, bind journal.Binding, total int, met *metrics) error {
	mergeName := shard + ".merge"
	for {
		canon, err := j.Load(key, bind)
		if err == nil && len(canon) >= total {
			if hasParts, _ := j.HasParts(key, bind); !hasParts {
				return nil // fully merged (by us or by another node)
			}
		}
		ok, err := l.TryAcquire(mergeName, cfg.Owner, cfg.TTL)
		if err != nil {
			cfg.Obs.Logf("dist: merge lease %s: %v", mergeName, err)
		}
		if !ok {
			time.Sleep(cfg.Poll)
			continue
		}
		all, err := j.LoadAll(key, bind)
		if err != nil || len(all) < total {
			l.Release(mergeName, cfg.Owner, false)
			if err == nil {
				err = fmt.Errorf("coverage shrank to %d/%d", len(all), total)
			}
			return fmt.Errorf("dist: %s: merge pre-check: %w", shard, err)
		}
		t0 := time.Now()
		mergeErr := j.Merge(key, bind, all)
		l.Release(mergeName, cfg.Owner, false)
		if mergeErr != nil {
			return fmt.Errorf("dist: %s: merge: %w", shard, mergeErr)
		}
		met.mergeS.Set(time.Since(t0).Seconds())
		// Chunk leases and done markers described the parts; with the
		// parts folded and removed, clear them so the lease directory
		// cannot grow without bound across campaigns.
		if err := l.Reset(shard + ".chunk-"); err != nil {
			cfg.Obs.Logf("dist: reset %s chunk leases: %v", shard, err)
		}
		cfg.Obs.Logf("dist: %s: merged %d results in %s", shard, total, time.Since(t0).Round(time.Millisecond))
		return nil
	}
}
