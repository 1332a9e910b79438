package pipeline

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/metrics"
)

// Lanes is a persistent worker pool for the speculative OCC pass. The
// previous design spawned transient goroutines per block; under pipelining
// a node executes a block every few milliseconds, so the lanes persist for
// the node's lifetime and their occupancy is measured — the depth×workers
// bench sweep uses per-lane busy time and per-block utilization to explain
// where added workers stop paying.
type Lanes struct {
	workers int
	tasks   chan laneTask
	stop    chan struct{}
	once    sync.Once

	// busyNs[w] accumulates lane w's task execution time.
	busyNs []atomic.Int64
	// laneBusy[w] is the exported per-lane counter (seconds, lane label).
	laneBusy []*metrics.Counter
}

type laneTask struct {
	fn   func(i int)
	i    int
	done *sync.WaitGroup
}

// NewLanes starts a pool of workers lanes. workers < 1 is clamped to 1
// (callers normally bypass Lanes entirely for single-way execution).
func NewLanes(workers int) *Lanes {
	if workers < 1 {
		workers = 1
	}
	l := &Lanes{
		workers: workers,
		// The task channel is unbuffered on purpose: a task is only ever
		// "sent" straight into a worker's hands, so Close can never strand
		// a buffered task that no worker will pick up (Run's stop branch
		// executes unsent tasks inline instead).
		tasks:  make(chan laneTask),
		stop:   make(chan struct{}),
		busyNs: make([]atomic.Int64, workers),
	}
	for w := 0; w < workers; w++ {
		l.laneBusy = append(l.laneBusy, metrics.Default().Counter(
			"confide_pipeline_lane_busy_microseconds_total",
			"cumulative task execution time per OCC lane (µs)",
			metrics.L{K: "lane", V: strconv.Itoa(w)}))
		go l.worker(w)
	}
	return l
}

// Workers reports the pool width.
func (l *Lanes) Workers() int { return l.workers }

func (l *Lanes) worker(w int) {
	for {
		select {
		case t := <-l.tasks:
			start := time.Now()
			t.fn(t.i)
			busy := time.Since(start)
			l.busyNs[w].Add(int64(busy))
			l.laneBusy[w].Add(uint64(busy.Microseconds()))
			t.done.Done()
		case <-l.stop:
			return
		}
	}
}

// Run executes fn(0..n-1) across the lanes and waits for all of them. It
// also observes the run's lane utilization: total busy time over workers ×
// wall time, the fraction of the pool the block actually kept occupied.
// Safe against Close — tasks the pool no longer accepts run inline on the
// caller, so Run always completes every index.
func (l *Lanes) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	start := time.Now()
	busyBefore := l.totalBusy()
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		t := laneTask{fn: fn, i: i, done: &done}
		select {
		case l.tasks <- t:
		case <-l.stop:
			// Pool shutting down under a live caller (node kill during
			// catch-up apply): finish the work inline so block application
			// never wedges half-executed.
			fn(i)
			done.Done()
		}
	}
	done.Wait()
	if wall := time.Since(start); wall > 0 {
		busy := l.totalBusy() - busyBefore
		util := float64(busy) / (float64(l.workers) * float64(wall))
		if util > 1 {
			util = 1
		}
		mLaneUtilization.Observe(util)
	}
}

func (l *Lanes) totalBusy() int64 {
	var total int64
	for w := range l.busyNs {
		total += l.busyNs[w].Load()
	}
	return total
}

// BusyTime reports lane w's cumulative task execution time.
func (l *Lanes) BusyTime(w int) time.Duration {
	if w < 0 || w >= l.workers {
		return 0
	}
	return time.Duration(l.busyNs[w].Load())
}

// Close stops the workers. In-flight Run calls complete (remaining tasks
// run inline on their callers). Idempotent.
func (l *Lanes) Close() {
	l.once.Do(func() { close(l.stop) })
}
