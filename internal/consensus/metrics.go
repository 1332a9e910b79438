package consensus

import "confide/internal/metrics"

// Process-wide PBFT counters. Per-replica numbers stay available via each
// Replica's fields; these aggregate across every replica in the process (an
// in-process cluster sums all of them), which is what the chaos harness
// asserts on.
var (
	mProposals   = metrics.Default().Counter("confide_consensus_proposals_total", "payloads proposed by leaders")
	mDelivered   = metrics.Default().Counter("confide_consensus_delivered_total", "payloads delivered (committed and handed to the application)")
	mViewChanges = metrics.Default().Counter("confide_consensus_view_changes_total", "view changes adopted")
	mRetransmits = metrics.Default().Counter("confide_consensus_retransmissions_total", "protocol messages re-sent by the liveness loop (instance resends, view-change revotes)")
	mHeartbeats  = metrics.Default().Counter("confide_consensus_heartbeats_total", "status heartbeats broadcast")
	mFetches     = metrics.Default().Counter("confide_consensus_fetches_total", "catch-up fetch requests sent")
	// A committed payload a lagging replica accepted from a peer's fetch
	// response is block catch-up, which the node reports next to its snapshot
	// installs in one family.
	mFetchedCommitted = metrics.Default().Counter("confide_node_sync_path_total", "catch-up progress, by path", metrics.L{K: "path", V: "blocks"})
)
