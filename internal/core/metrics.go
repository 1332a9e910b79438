package core

import "confide/internal/metrics"

// Engine-level instruments. The seal histogram deliberately joins the
// confide_pipeline_stage_seconds family the node's stage tracer owns: sealing
// happens client-side (before the transaction exists on any node), so it is
// observed as a standalone stage series rather than through a tracer span.
var (
	mSealSeconds = metrics.Default().Histogram("confide_pipeline_stage_seconds",
		"per-stage pipeline latency", nil, metrics.L{K: "stage", V: "seal"})

	mPreverified = metrics.Default().Counter("confide_core_preverified_total",
		"transactions that passed batch pre-verification")
	mPreverifyRejects = metrics.Default().Counter("confide_core_preverify_rejects_total",
		"transactions dropped by pre-verification (bad envelope, signature or encoding)")
	mPreverifyAttested = metrics.Default().Counter("confide_core_preverify_attested_total",
		"transactions accepted on the proposer enclave's block attestation instead of local signature verification")
	// How execution obtained each confidential transaction's k_tx: the
	// private-key open ("ecdh"), this enclave's pre-verification ("local") or
	// the proposer enclave's attestation ("relayed"). Which replica paid the
	// ECDH is answerable from a scrape.
	mOpenECDH = metrics.Default().Counter("confide_core_envelope_opens_total",
		"envelope opens at execution, by source of k_tx", metrics.L{K: "path", V: "ecdh"})
	mOpenLocal = metrics.Default().Counter("confide_core_envelope_opens_total",
		"envelope opens at execution, by source of k_tx", metrics.L{K: "path", V: "local"})
	mOpenRelayed = metrics.Default().Counter("confide_core_envelope_opens_total",
		"envelope opens at execution, by source of k_tx", metrics.L{K: "path", V: "relayed"})
	mExecPublic = metrics.Default().Counter("confide_core_executed_total",
		"transactions executed, by type", metrics.L{K: "type", V: "public"})
	mExecConfidential = metrics.Default().Counter("confide_core_executed_total",
		"transactions executed, by type", metrics.L{K: "type", V: "confidential"})

	// The read cache is bounded by what execution reads, not by what it
	// writes: a written key stays in memory only if it was read (SDM.settle).
	mSDMCacheEntries = metrics.Default().Gauge("confide_core_sdm_cache_entries",
		"entries held in the SDM read caches of this process's engines")
)
