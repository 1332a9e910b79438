package main

// Tracing from outside the program: spans around the harness's own calls and
// periodic samples of the process-wide metrics registry. Nothing here reaches
// into the system under test; spans inside it are a later change.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/metrics"
)

// span is one timed interval: name, start, end, the span that caused it, and
// an identifier shared by the spans of one request (a batch number or the
// first eight bytes of a transaction hash).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the load started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	ID     string `json:"id,omitempty"`
	Txs    int    `json:"txs,omitempty"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
// While off, begin returns -1 and costs one atomic load.
type spanLog struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) begin(name string, parent int, id string) int {
	if !l.on.Load() {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

func (l *spanLog) setID(i int, id string) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].ID = id
	l.mu.Unlock()
}

func (l *spanLog) setTxs(i, n int) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].Txs = n
	l.mu.Unlock()
}

// add records a finished span after the fact (per-transaction commit spans
// are cut from the tracker's records once the run is over).
func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// durations returns the lengths, in seconds, of every finished span called
// name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// txs sums the transaction counts carried by the spans called name.
func (l *spanLog) txs(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.spans {
		if s.Name == name {
			n += s.Txs
		}
	}
	return n
}

func (l *spanLog) write(path string, header map[string]any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"run": header, "spans": l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gaugeSampler reads the registry's gauges every samplerEvery while a traced
// portion runs, for the metrics that are means over time.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	sums map[string]float64
	n    int
}

const samplerEvery = 100 * time.Millisecond

func startGaugeSampler() *gaugeSampler {
	s := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{}), sums: map[string]float64{}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplerEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for name, v := range metrics.Default().Snapshot().Gauges {
					s.sums[name] += float64(v)
				}
				s.n++
			}
		}
	}()
	return s
}

// finish stops the sampler and returns each gauge's mean.
func (s *gaugeSampler) finish() map[string]float64 {
	close(s.stop)
	<-s.done
	means := make(map[string]float64, len(s.sums))
	for name, sum := range s.sums {
		means[name] = sum / float64(max(s.n, 1))
	}
	return means
}

// registryDelta is what the registry counted between two snapshots.
type registryDelta struct {
	before, after metrics.Snapshot
}

func (d registryDelta) counter(family string) float64 {
	return float64(d.after.CounterSum(family) - d.before.CounterSum(family))
}

func (d registryDelta) series(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// hist returns the observations a histogram series gained in the interval.
func (d registryDelta) hist(series string) metrics.HistogramSnapshot {
	a, b := d.after.Histograms[series], d.before.Histograms[series]
	out := metrics.HistogramSnapshot{Bounds: a.Bounds, Buckets: make([]uint64, len(a.Buckets)), Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i]
		if i < len(b.Buckets) {
			out.Buckets[i] -= b.Buckets[i]
		}
	}
	return out
}
