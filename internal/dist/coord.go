package dist

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Coordinator is an in-memory lease table behind TryAcquire/Release and
// POST /v1/dist/lease: the benchmark's baseline for a lease round trip
// without files. No fleet leases through it — every node leases through
// FileLeaser in the shared journal — and no binary constructs one.
type Coordinator struct {
	mu     sync.Mutex
	now    func() time.Time
	leases map[string]leaseRecord
	done   map[string]struct{}
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		now:    time.Now,
		leases: make(map[string]leaseRecord),
		done:   make(map[string]struct{}),
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

// leaseOp is the wire form of one lease-endpoint call.
type leaseOp struct {
	Op    string `json:"op"` // acquire | release
	Name  string `json:"name"`
	Owner string `json:"owner"`
	TTLMS int64  `json:"ttl_ms"`
	Done  bool   `json:"done"` // release only
}

type leaseReply struct {
	OK bool `json:"ok"`
}

// Mount registers the lease endpoint, POST /v1/dist/lease, on mux.
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
		// The in-memory table cannot fail, so neither op returns an error.
		var rep leaseReply
		switch op.Op {
		case "acquire":
			rep.OK, _ = c.TryAcquire(op.Name, op.Owner, ttl)
		case "release":
			c.Release(op.Name, op.Owner, op.Done)
			rep.OK = true
		default:
			http.Error(w, "unknown op "+op.Op, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
}
