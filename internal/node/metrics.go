package node

import (
	"encoding/binary"

	"confide/internal/chain"
	"confide/internal/metrics"
)

// Pipeline instrumentation. The stage tracer follows each transaction
// through the Figure 7 pipeline on this node:
//
//	(seal, client-side) → preverify → order → execute → commit
//
// A span opens when the transaction first enters the node's unverified pool
// (SubmitTx or gossip), marks "preverify" when it moves to the verified
// pool, then "order", "execute" and "commit" as its block commits; the
// "order" stage therefore covers pool wait plus consensus latency. Followers
// that never pre-verified a gossiped transaction skip straight to "order" —
// the tracer allows forward skips by design.
//
// Every node in an in-process cluster executes every transaction, so tracer
// keys are node-scoped (node id + tx hash). Per-node Tracer instances all
// bind to the same underlying registry histograms; the per-stage series
// aggregate across nodes exactly like the other process-wide counters.
var (
	pipelineStages = []string{"preverify", "order", "execute", "commit"}

	mBlocks = metrics.Default().Counter("confide_node_blocks_committed_total",
		"blocks applied to the chain tip")
	mTxsCommitted = metrics.Default().Counter("confide_node_txs_committed_total",
		"transactions committed inside applied blocks")
	mDedupSkips = metrics.Default().Counter("confide_node_dedup_skips_total",
		"transactions skipped at execution because an earlier block already held them")
	mOversizedRejected = metrics.Default().Counter("confide_node_oversized_tx_rejections_total",
		"transactions rejected at the submission boundary or on gossip receive for exceeding MaxTxBytes")
	// Why the proposer loop cut a block: a full one, or a partial one on an
	// empty ordering window.
	mBlocksCutFull = metrics.Default().Counter("confide_node_blocks_cut_total",
		"blocks cut by this process's proposer loops, by reason", metrics.L{K: "reason", V: "full"})
	mBlocksCutIdle = metrics.Default().Counter("confide_node_blocks_cut_total",
		"blocks cut by this process's proposer loops, by reason", metrics.L{K: "reason", V: "idle"})
	mBlockExecSeconds = metrics.Default().Histogram("confide_node_block_execute_seconds",
		"per-block execution time (OCC passes)", nil)
	mBlockCommitSeconds = metrics.Default().Histogram("confide_node_block_commit_seconds",
		"per-block storage commit time (WriteBatch)", nil)

	// OCC scheduler effectiveness: conflicts/speculative is the fraction of
	// parallel work thrown away by the validation pass.
	mOCCSpeculated = metrics.Default().Counter("confide_node_occ_speculative_total",
		"transactions executed speculatively against the pre-block snapshot")
	mOCCConflicts = metrics.Default().Counter("confide_node_occ_conflicts_total",
		"speculative results discarded and re-executed by the validation pass")

	// Attested pre-verification, per applied block: whether the proposer
	// enclave's attestation opened, so execution skipped every signature
	// check and private-key open ("accepted"), failed to open ("rejected"),
	// or was missing ("absent": catch-up sync of a block whose attestation
	// carried keys, or a proposer that could not attest).
	mAttestAccepted = metrics.Default().Counter("confide_node_verify_tag_total",
		"applied blocks, by outcome of their pre-verification attestation", metrics.L{K: "outcome", V: "accepted"})
	mAttestRejected = metrics.Default().Counter("confide_node_verify_tag_total",
		"applied blocks, by outcome of their pre-verification attestation", metrics.L{K: "outcome", V: "rejected"})
	mAttestAbsent = metrics.Default().Counter("confide_node_verify_tag_total",
		"applied blocks, by outcome of their pre-verification attestation", metrics.L{K: "outcome", V: "absent"})

	// Catch-up path selection: how lagging nodes rejoined the tip.
	mSyncPathBlocks = metrics.Default().Counter("confide_node_sync_path_total",
		"catch-up progress, by path", metrics.L{K: "path", V: "blocks"})
	mSyncPathSnapshot = metrics.Default().Counter("confide_node_sync_path_total",
		"catch-up progress, by path", metrics.L{K: "path", V: "snapshot"})

	// Checkpoint / fast-sync / pruning instruments.
	mCheckpointSeconds = metrics.Default().Histogram("confide_node_checkpoint_export_seconds",
		"time to export one state checkpoint", nil)
	mSnapSyncSeconds = metrics.Default().Histogram("confide_node_snapshot_sync_seconds",
		"manifest-request-to-install time of snapshot fast-syncs", nil)
	mSnapFetchRetries = metrics.Default().Counter("confide_node_snapshot_fetch_retries_total",
		"chunk fetch attempts beyond the first (timeouts, lost or bad responses)")
	mSnapBadChunks = metrics.Default().Counter("confide_node_snapshot_bad_chunks_total",
		"received chunks rejected for a content-hash mismatch")
	mSnapBadManifests = metrics.Default().Counter("confide_node_snapshot_bad_manifests_total",
		"received manifests rejected (MAC or root verification failed)")
	mSnapInstallFailures = metrics.Default().Counter("confide_node_snapshot_install_failures_total",
		"fully-fetched snapshots that failed verification at install")
	mSnapInstallHeight = metrics.Default().Gauge("confide_node_snapshot_install_height",
		"chain height of the most recent snapshot install (0 = never)")
	mBlocksPruned = metrics.Default().Counter("confide_node_blocks_pruned_total",
		"block payloads retired by checkpoint-anchored pruning")
	mStoreFatal = metrics.Default().Counter("confide_node_store_fatal_total",
		"nodes killed by an unrecoverable storage error (fail-stop on fsync/commit failure)")
	mStoreQuarantines = metrics.Default().Counter("confide_node_store_quarantines_total",
		"corrupt or half-installed stores set aside at reopen (node rebuilds via snapshot fast-sync)")
	mCrashRecoveries = metrics.Default().Counter("confide_node_crash_recoveries_total",
		"nodes revived from a simulated crash (store reopened from the post-crash disk image)")
)

// newPipelineTracer creates a node's view of the shared pipeline tracer
// instruments.
func newPipelineTracer() *metrics.Tracer {
	return metrics.NewTracer(metrics.Default(), "confide_pipeline", pipelineStages...)
}

// traceKey scopes a transaction hash to this node, since every node in an
// in-process cluster traces the same transactions.
func (n *Node) traceKey(h chain.Hash) string {
	var key [36]byte
	binary.LittleEndian.PutUint32(key[:4], uint32(n.endpoint.ID()))
	copy(key[4:], h[:])
	return string(key[:])
}
