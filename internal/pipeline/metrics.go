package pipeline

import "confide/internal/metrics"

// Pipeline observability. Gauges aggregate by delta across the in-process
// nodes of a cluster, like the node package's counters.
var (
	// Scheduler: predicted-chain depth and the abort/repool recovery path.
	mSchedDepth = metrics.Default().Gauge("confide_pipeline_sched_inflight_blocks",
		"predicted (proposed, not yet applied) blocks across all schedulers")
	mSchedTracked = metrics.Default().Counter("confide_pipeline_sched_tracked_total",
		"proposals entered into the predicted chain")
	mSchedAborted = metrics.Default().Counter("confide_pipeline_sched_aborted_total",
		"predicted blocks aborted (view change, foreign block at a predicted height)")
	mSchedRepooledTxs = metrics.Default().Counter("confide_pipeline_sched_repooled_txs_total",
		"transactions returned for re-pooling by predicted-chain aborts")

	// Executor: execute-behind-order queue occupancy.
	mExecQueueBlocks = metrics.Default().Gauge("confide_pipeline_exec_queue_blocks",
		"delivered blocks awaiting execution (including the one executing)")
	mExecQueueTxs = metrics.Default().Gauge("confide_pipeline_exec_queue_txs",
		"transactions inside delivered blocks awaiting execution")
)
