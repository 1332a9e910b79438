package gateway

import "confide/internal/metrics"

// Gateway instrumentation. Request counters and latency histograms are
// per-endpoint (label "endpoint"); admission-control rejections are
// per-reason (label "reason"); the rest are subsystem-wide. All bind to the
// process-wide registry, so they appear in /metrics and the Summary table
// alongside the node pipeline counters, and chaos/bench certify runs from
// their deltas.
var (
	mInFlight = metrics.Default().Gauge("confide_gateway_inflight_requests",
		"HTTP requests currently being served")

	mShedOverload = metrics.Default().Counter("confide_gateway_shed_total",
		"submissions shed by admission control, by reason", metrics.L{K: "reason", V: "overload"})
	mShedRateLimit = metrics.Default().Counter("confide_gateway_shed_total",
		"submissions shed by admission control, by reason", metrics.L{K: "reason", V: "ratelimit"})
	mShedDraining = metrics.Default().Counter("confide_gateway_shed_total",
		"submissions shed by admission control, by reason", metrics.L{K: "reason", V: "draining"})
	mShedInflight = metrics.Default().Counter("confide_gateway_shed_total",
		"submissions shed by admission control, by reason", metrics.L{K: "reason", V: "inflight"})

	mDedupHits = metrics.Default().Counter("confide_gateway_dedup_hits_total",
		"submissions answered from the tx-hash dedup index without re-entering the pool")
	mDedupIndexSize = metrics.Default().Gauge("confide_gateway_dedup_index_entries",
		"transaction hashes held in the dedup indexes of this process's gateways (each bounded by DedupCap)")
	mStaleEpoch = metrics.Default().Counter("confide_gateway_stale_epoch_rejections_total",
		"envelopes rejected at the edge for an epoch tag outside the acceptance window")
	mOversized = metrics.Default().Counter("confide_gateway_oversized_rejections_total",
		"submissions rejected at the edge for exceeding the wire size bound")
	mAccepted = metrics.Default().Counter("confide_gateway_accepted_txs_total",
		"transactions accepted into the backing node's pool")
	mLongPolls = metrics.Default().Counter("confide_gateway_receipt_longpolls_total",
		"receipt requests that parked waiting for a commit")
	mLongPollWakes = metrics.Default().Counter("confide_gateway_receipt_longpoll_wakes_total",
		"parked receipt requests woken by a commit notification")
	mBatchSize = metrics.Default().Histogram("confide_gateway_submit_batch_size",
		"transactions one submission request handed to the node",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
)

// endpoint instruments are created lazily per known endpoint name.
func endpointInstruments(endpoint string) (*metrics.Counter, *metrics.Histogram) {
	c := metrics.Default().Counter("confide_gateway_requests_total",
		"HTTP requests served, by endpoint", metrics.L{K: "endpoint", V: endpoint})
	h := metrics.Default().Histogram("confide_gateway_request_seconds",
		"request latency, by endpoint", nil, metrics.L{K: "endpoint", V: endpoint})
	return c, h
}
