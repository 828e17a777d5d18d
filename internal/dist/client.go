package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// HTTPLeaser is the worker-side client of a Coordinator's lease endpoint:
// the same Leaser semantics, reached over the coordinator's obs/avgid mux.
// Transport failures surface as errors; the claim loop treats them as "not
// acquired" and retries, so a coordinator restart (or a network blip)
// stalls a worker briefly instead of failing its campaign.
type HTTPLeaser struct {
	// Base is the coordinator root, e.g. "http://host:9090".
	Base string
	// Client defaults to a 10-second-timeout client.
	Client *http.Client
}

// NewHTTPLeaser returns a leaser talking to the coordinator at base.
func NewHTTPLeaser(base string) *HTTPLeaser {
	return &HTTPLeaser{Base: base, Client: &http.Client{Timeout: 10 * time.Second}}
}

func (h *HTTPLeaser) post(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	cl := h.Client
	if cl == nil {
		cl = http.DefaultClient
	}
	resp, err := cl.Post(h.Base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: coordinator %s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

func (h *HTTPLeaser) lease(op leaseOp) (bool, error) {
	var rep leaseReply
	if err := h.post("/v1/dist/lease", op, &rep); err != nil {
		return false, err
	}
	if rep.Error != "" {
		return rep.OK, fmt.Errorf("dist: %s", rep.Error)
	}
	return rep.OK, nil
}

// TryAcquire implements Leaser.
func (h *HTTPLeaser) TryAcquire(name, owner string, ttl time.Duration) (bool, error) {
	return h.lease(leaseOp{Op: "acquire", Name: name, Owner: owner, TTLMS: ttl.Milliseconds()})
}

// Heartbeat implements Leaser.
func (h *HTTPLeaser) Heartbeat(name, owner string, ttl time.Duration) error {
	_, err := h.lease(leaseOp{Op: "heartbeat", Name: name, Owner: owner, TTLMS: ttl.Milliseconds()})
	return err
}

// Release implements Leaser.
func (h *HTTPLeaser) Release(name, owner string, done bool) error {
	_, err := h.lease(leaseOp{Op: "release", Name: name, Owner: owner, Done: done})
	return err
}

// Reset implements Leaser.
func (h *HTTPLeaser) Reset(prefix string) error {
	_, err := h.lease(leaseOp{Op: "reset", Name: prefix})
	return err
}

// Register announces this worker to the coordinator's fleet listing.
func (h *HTTPLeaser) Register(node string) error {
	return h.post("/v1/dist/register", map[string]string{"node": node}, nil)
}

// Announce publishes a campaign spec to the coordinator's fan-out feed.
func (h *HTTPLeaser) Announce(spec json.RawMessage) (int, error) {
	var rep map[string]int
	if err := h.post("/v1/dist/campaigns", map[string]json.RawMessage{"spec": spec}, &rep); err != nil {
		return 0, err
	}
	return rep["id"], nil
}

// Campaigns fetches announcements with ID > after.
func (h *HTTPLeaser) Campaigns(after int) ([]Announcement, error) {
	cl := h.Client
	if cl == nil {
		cl = http.DefaultClient
	}
	resp, err := cl.Get(fmt.Sprintf("%s/v1/dist/campaigns?after=%d", h.Base, after))
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: coordinator campaigns: %s", resp.Status)
	}
	var out []Announcement
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return out, nil
}
