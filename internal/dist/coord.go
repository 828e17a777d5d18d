package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Coordinator is the lease-endpoint mode: one process (typically the avgid
// server started with -dist-role=coordinator) arbitrates leases in memory
// and exposes them over the obs/avgid mux, so workers on machines that do
// NOT share a filesystem can still split a campaign — they share only the
// journal directory contents via their own mounts, or run machine-local
// journals that are merged offline.
//
// The coordinator is deliberately stateless across restarts: leases live
// in memory only. A restarted coordinator comes back empty and relearns
// ownership from the workers' next heartbeat wave (Heartbeat re-creates
// unknown leases), and done markers are reconstructed from the journal by
// the workers' own claim loops — a chunk whose results are journalled is
// re-claimed, re-verified as prior-covered, and never re-simulated.
//
// Coordinator implements Leaser directly, so the coordinator process's own
// Service uses it in-process while remote workers reach the same state
// through HTTPLeaser.
type Coordinator struct {
	mu     sync.Mutex
	now    func() time.Time
	leases map[string]leaseRecord
	done   map[string]struct{}

	// nodes maps a registered worker identity to its last-seen time.
	nodes map[string]time.Time

	// campaigns is the announced-work fan-out feed: the coordinator's
	// Service announces each assessment it starts, workers poll the feed
	// and run the same assessments against the shared journal. It keeps the
	// newest feedRetained announcements, oldest first; announced indexes
	// them by spec for the dedup and loses an entry with it.
	campaigns []Announcement
	announced map[string]int
	nextID    int
}

// feedRetained bounds the fan-out feed. Dropping the oldest announcements
// loses no work: the coordinator runs every assessment it announces
// itself, so the feed only spreads it, and a worker that falls behind the
// oldest kept ID receives what is still kept.
const feedRetained = 256

// Announcement is one fanned-out campaign: an opaque request payload (the
// avgid AssessRequest, but the coordinator does not depend on its shape)
// plus a feed ID workers use to deduplicate.
type Announcement struct {
	ID   int             `json:"id"`
	Spec json.RawMessage `json:"spec"`
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		now:       time.Now,
		leases:    make(map[string]leaseRecord),
		done:      make(map[string]struct{}),
		nodes:     make(map[string]time.Time),
		announced: make(map[string]int),
	}
}

// SetClock replaces the staleness clock (tests).
func (c *Coordinator) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// TryAcquire implements Leaser.
func (c *Coordinator) TryAcquire(name, owner string, ttl time.Duration) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, done := c.done[name]; done {
		return false, nil
	}
	if rec, ok := c.leases[name]; ok && rec.Owner != owner && c.now().UnixNano() < rec.Expiry {
		return false, nil
	}
	c.leases[name] = leaseRecord{Owner: owner, Expiry: c.now().Add(ttl).UnixNano()}
	return true, nil
}

// Heartbeat implements Leaser. Unknown leases are re-created — the
// coordinator-restart recovery path.
func (c *Coordinator) Heartbeat(name, owner string, ttl time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.leases[name]; ok && rec.Owner != owner && c.now().UnixNano() < rec.Expiry {
		return fmt.Errorf("dist: lease %s now held by %s", name, rec.Owner)
	}
	c.leases[name] = leaseRecord{Owner: owner, Expiry: c.now().Add(ttl).UnixNano()}
	return nil
}

// Release implements Leaser.
func (c *Coordinator) Release(name, owner string, done bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if done {
		c.done[name] = struct{}{}
	}
	if rec, ok := c.leases[name]; ok && rec.Owner == owner {
		delete(c.leases, name)
	}
	return nil
}

// Reset implements Leaser.
func (c *Coordinator) Reset(prefix string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.leases {
		if strings.HasPrefix(name, prefix) {
			delete(c.leases, name)
		}
	}
	for name := range c.done {
		if strings.HasPrefix(name, prefix) {
			delete(c.done, name)
		}
	}
	return nil
}

// Register records a worker node as part of the fleet (observability and
// the /v1/dist/nodes listing; leases do not require registration).
func (c *Coordinator) Register(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[node] = c.now()
}

// Nodes returns the registered workers, sorted, with last-seen ages.
func (c *Coordinator) Nodes() map[string]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Time, len(c.nodes))
	for n, t := range c.nodes {
		out[n] = t
	}
	return out
}

// Announce publishes one campaign spec to the fan-out feed and returns its
// feed ID. Announcing a spec byte-identical to one still in the feed is a
// no-op returning the existing ID (assessments are idempotent, but a
// duplicate entry would make every worker revisit the journal for it).
func (c *Coordinator) Announce(spec json.RawMessage) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.announced[string(spec)]; ok {
		return id
	}
	if len(c.campaigns) == feedRetained {
		delete(c.announced, string(c.campaigns[0].Spec))
		c.campaigns = append(c.campaigns[:0], c.campaigns[1:]...)
	}
	c.nextID++
	c.campaigns = append(c.campaigns, Announcement{ID: c.nextID, Spec: append(json.RawMessage(nil), spec...)})
	c.announced[string(spec)] = c.nextID
	return c.nextID
}

// Campaigns returns the kept announcements with ID > after, in feed order.
func (c *Coordinator) Campaigns(after int) []Announcement {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.campaigns), func(i int) bool { return c.campaigns[i].ID > after })
	if i == len(c.campaigns) {
		return nil
	}
	return slices.Clone(c.campaigns[i:])
}

// leaseOp is the wire form of one lease-endpoint call.
type leaseOp struct {
	Op    string `json:"op"` // acquire | heartbeat | release | reset
	Name  string `json:"name"`
	Owner string `json:"owner"`
	TTLMS int64  `json:"ttl_ms"`
	Done  bool   `json:"done"` // release only
}

type leaseReply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Mount registers the coordinator's HTTP endpoints on mux (the same mux
// the obs/avgid server already serves):
//
//	POST /v1/dist/lease     — lease ops (acquire/heartbeat/release/reset)
//	POST /v1/dist/register  — {"node": ...} worker registration
//	GET  /v1/dist/campaigns — fan-out feed; ?after=<id> for increments
//	POST /v1/dist/campaigns — {"spec": ...} announce one campaign
//	GET  /v1/dist/nodes     — registered workers and last-seen ages
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var op leaseOp
		if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ttl := time.Duration(op.TTLMS) * time.Millisecond
		var rep leaseReply
		var err error
		switch op.Op {
		case "acquire":
			rep.OK, err = c.TryAcquire(op.Name, op.Owner, ttl)
		case "heartbeat":
			err = c.Heartbeat(op.Name, op.Owner, ttl)
			rep.OK = err == nil
		case "release":
			err = c.Release(op.Name, op.Owner, op.Done)
			rep.OK = err == nil
		case "reset":
			err = c.Reset(op.Name)
			rep.OK = err == nil
		default:
			http.Error(w, "unknown op "+op.Op, http.StatusBadRequest)
			return
		}
		if err != nil {
			rep.Error = err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/v1/dist/register", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var body struct {
			Node string `json:"node"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Node == "" {
			http.Error(w, "need {\"node\": ...}", http.StatusBadRequest)
			return
		}
		c.Register(body.Node)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(leaseReply{OK: true})
	})
	mux.HandleFunc("/v1/dist/campaigns", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			after := 0
			fmt.Sscanf(r.URL.Query().Get("after"), "%d", &after)
			w.Header().Set("Content-Type", "application/json")
			list := c.Campaigns(after)
			if list == nil {
				list = []Announcement{}
			}
			json.NewEncoder(w).Encode(list)
		case http.MethodPost:
			var body struct {
				Spec json.RawMessage `json:"spec"`
			}
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Spec) == 0 {
				http.Error(w, "need {\"spec\": ...}", http.StatusBadRequest)
				return
			}
			id := c.Announce(body.Spec)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]int{"id": id})
		default:
			http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/dist/nodes", func(w http.ResponseWriter, r *http.Request) {
		nodes := c.Nodes()
		names := make([]string, 0, len(nodes))
		for n := range nodes {
			names = append(names, n)
		}
		sort.Strings(names)
		type nodeView struct {
			Node     string  `json:"node"`
			AgeSec   float64 `json:"age_sec"`
			LastSeen string  `json:"last_seen"`
		}
		out := make([]nodeView, 0, len(names))
		c.mu.Lock()
		now := c.now()
		c.mu.Unlock()
		for _, n := range names {
			out = append(out, nodeView{Node: n, AgeSec: now.Sub(nodes[n]).Seconds(), LastSeen: nodes[n].UTC().Format(time.RFC3339)})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
