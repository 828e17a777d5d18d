package avgi

import "time"

// DistConfig opts a Study or Service into the distributed campaign layer:
// every campaign runs as this node's share of a fleet that shards the fault
// list chunk-by-chunk across processes, coordinating through lease files in
// the shared journal directory and merging each node's journalled part
// shard into a byte-identical canonical shard. See docs/DISTRIBUTED.md.
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

	// LeaseTTL is how long a silent node keeps its chunks before the fleet
	// takes them over (default 10s).
	LeaseTTL time.Duration
}
