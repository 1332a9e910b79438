package p2p

import "confide/internal/metrics"

// Registry mirrors of the per-network counters struct. Network.Stats() stays
// the per-instance API (tests assert on it against a single fabric); these
// series aggregate every Network in the process for /metrics and the chaos
// harness. Drops share one family split by a reason label, so a dashboard
// can stack them into a total-loss view.
var (
	mSent       = metrics.Default().Counter("confide_p2p_sent_total", "messages accepted from senders (after drop lotteries)")
	mDelivered  = metrics.Default().Counter("confide_p2p_delivered_total", "messages handed to live endpoint handlers")
	mDuplicates = metrics.Default().Counter("confide_p2p_duplicates_total", "extra deliveries injected by the duplicate lottery")
	mReordered  = metrics.Default().Counter("confide_p2p_reordered_total", "messages held back by reorder jitter")
	mCorrupted  = metrics.Default().Counter("confide_p2p_corrupted_total", "messages delivered with an injected payload bit-flip")

	// The simulated link's schedule versus the runtime's: a timer-delivered
	// message lands when its AfterFunc fires, which on an idle process is
	// rounded up to the netpoller's millisecond.
	mDeliveryLateness = metrics.Default().Histogram("confide_p2p_delivery_lateness_seconds",
		"time from a message's scheduled delivery to its enqueue at the receiver", nil)

	mDropRate      = dropCounter("rate")
	mDropLink      = dropCounter("link")
	mDropTopic     = dropCounter("topic")
	mDropPartition = dropCounter("partition")
	mDropCrash     = dropCounter("crash")
	mDropOverflow  = dropCounter("overflow")
)

func dropCounter(reason string) *metrics.Counter {
	return metrics.Default().Counter("confide_p2p_drops_total",
		"messages lost, by cause", metrics.L{K: "reason", V: reason})
}
