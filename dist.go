package avgi

import (
	"time"

	"avgi/internal/dist"
)

// DistConfig opts a Study or Service into the distributed campaign layer:
// every campaign runs as this node's share of a fleet that shards the fault
// list chunk-by-chunk across processes, coordinating through lease files in
// the shared journal directory (or a coordinator's lease endpoint) and
// merging each node's journalled part shard into a byte-identical canonical
// shard. See docs/DISTRIBUTED.md.
type DistConfig struct {
	// Fleet is the cluster-wide worker count — in distributed mode the
	// -workers flag means the whole fleet, not one process. It fixes the
	// chunk geometry and the fleet-wide slot budget, so every node of one
	// campaign must use the same value. <= 0 disables distribution.
	Fleet int

	// Owner is this node's stable identity (default "<hostname>-<pid>").
	// Restarting under the same owner reclaims the node's part shard and
	// leases instantly.
	Owner string

	// Coordinator is the lease endpoint base URL ("http://host:port") of an
	// avgid started with -dist-role=coordinator. Empty coordinates through
	// lease files under the journal directory instead — the zero-
	// infrastructure mode for workers sharing a filesystem.
	Coordinator string

	// LeaseTTL is how long a silent node keeps its chunks before the fleet
	// takes them over (default 10s).
	LeaseTTL time.Duration

	// coord, when set via UseCoordinator, arbitrates leases through an
	// in-process coordinator instead of files or HTTP — the avgid
	// coordinator role's own campaigns go through the same arbiter its
	// workers reach over /v1/dist/*.
	coord *dist.Coordinator
}

// UseCoordinator points the config at an in-process coordinator, taking
// precedence over both Coordinator (HTTP) and file leases.
func (d *DistConfig) UseCoordinator(c *DistCoordinator) { d.coord = c }

// leaser materialises the configured lease arbiter; nil lets the dist layer
// default to file leases under the journal directory.
func (d *DistConfig) leaser() dist.Leaser {
	if d.coord != nil {
		return d.coord
	}
	if d.Coordinator == "" {
		return nil
	}
	return dist.NewHTTPLeaser(d.Coordinator)
}

// NewDistCoordinator returns an empty lease coordinator, ready to Mount on
// an HTTP mux (cmd/avgid -dist-role=coordinator mounts one on the same mux
// that serves /v1/assess and /metrics).
func NewDistCoordinator() *dist.Coordinator { return dist.NewCoordinator() }

// DistCoordinator is the in-memory lease arbiter behind -dist-role=coordinator.
type DistCoordinator = dist.Coordinator

// DistAnnouncement is one fanned-out campaign of a coordinator's feed.
type DistAnnouncement = dist.Announcement

// NewDistClient returns a client of a coordinator's lease and fan-out
// endpoints (cmd/avgid -dist-role=worker polls one).
func NewDistClient(base string) *dist.HTTPLeaser { return dist.NewHTTPLeaser(base) }
