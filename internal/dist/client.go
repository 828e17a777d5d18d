package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// HTTPLeaser is the client of a Coordinator's lease endpoint: the
// benchmark's lease round trip over HTTP. No fleet leases through it (see
// Leaser).
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

func (h *HTTPLeaser) lease(op leaseOp) (bool, error) {
	data, err := json.Marshal(op)
	if err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	cl := h.Client
	if cl == nil {
		cl = http.DefaultClient
	}
	resp, err := cl.Post(h.Base+"/v1/dist/lease", "application/json", bytes.NewReader(data))
	if err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("dist: coordinator lease: %s", resp.Status)
	}
	var rep leaseReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	return rep.OK, nil
}

// TryAcquire implements Leaser.
func (h *HTTPLeaser) TryAcquire(name, owner string, ttl time.Duration) (bool, error) {
	return h.lease(leaseOp{Op: "acquire", Name: name, Owner: owner, TTLMS: ttl.Milliseconds()})
}

// Release implements Leaser.
func (h *HTTPLeaser) Release(name, owner string, done bool) error {
	_, err := h.lease(leaseOp{Op: "release", Name: name, Owner: owner, Done: done})
	return err
}
