package pipeline

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once, and distinct-index writes need no locking.
func TestLanesRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 4, 2 * n} {
		counts := make([]int32, n)
		RunLanes(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%d workers: index %d ran %d times", workers, i, c)
			}
		}
	}
	RunLanes(4, 0, func(int) { t.Fatal("ran an index of an empty range") })
}

// The lanes actually run tasks concurrently.
func TestLanesParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥ 2 procs")
	}
	var peak, cur atomic.Int32
	RunLanes(4, 8, func(i int) {
		now := cur.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
	})
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want ≥ 2", peak.Load())
	}
}
