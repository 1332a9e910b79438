package metrics

import (
	"sync"
	"time"
)

// Tracer tracks individual items (transactions) through an ordered sequence
// of named stages, observing per-stage latency into one histogram family
// (`<name>_stage_seconds{stage="..."}`) and end-to-end latency into
// `<name>_total_seconds`. It is the pipeline instrument behind the paper's
// Figure 7 phases: seal → preverify → order → execute → commit.
//
// Semantics:
//
//   - Begin(key) starts a span at the current time.
//   - Mark(key, stage) records time-since-previous-mark into that stage's
//     histogram and advances the span to the stage after it. Stages may be
//     skipped forward (a follower that never pre-verified a transaction can
//     Mark "order" directly); marking a stage at or before one already
//     recorded is counted in <name>_trace_misorders_total and ignored, so
//     duplicate deliveries cannot double-observe.
//   - End(key) observes the span's total lifetime and retires it.
//   - Drop(key) retires a span without observing (duplicate/stale items).
//
// Marks for unknown keys are ignored (the item predates the tracer or was
// evicted). The active-span table is bounded: when full, Begin drops the new
// span and counts it in <name>_trace_drops_total. All methods are safe for
// concurrent use.
type Tracer struct {
	reg    *Registry
	stages []string
	index  map[string]int
	hists  []*Histogram
	total  *Histogram

	misorders *Counter
	drops     *Counter

	mu     sync.Mutex
	active map[string]*span
	cap    int
}

type span struct {
	start time.Time
	last  time.Time
	next  int // lowest stage index still markable
}

// DefaultTracerCap bounds in-flight spans per tracer.
const DefaultTracerCap = 1 << 16

// NewTracer creates a tracer over the ordered stage list, binding its
// instruments to r. name is the metric family prefix (e.g.
// "confide_pipeline").
func NewTracer(r *Registry, name string, stages ...string) *Tracer {
	if len(stages) == 0 {
		panic("metrics: tracer needs at least one stage")
	}
	t := &Tracer{
		reg:       r,
		stages:    append([]string(nil), stages...),
		index:     make(map[string]int, len(stages)),
		total:     r.Histogram(name+"_total_seconds", "end-to-end pipeline latency", nil),
		misorders: r.Counter(name+"_trace_misorders_total", "stage marks rejected as out of order"),
		drops:     r.Counter(name+"_trace_drops_total", "spans dropped (table full or retired unobserved)"),
		active:    make(map[string]*span),
		cap:       DefaultTracerCap,
	}
	for i, s := range stages {
		if _, dup := t.index[s]; dup {
			panic("metrics: duplicate tracer stage " + s)
		}
		t.index[s] = i
		t.hists = append(t.hists, r.Histogram(
			name+"_stage_seconds", "per-stage pipeline latency", nil, L{"stage", s}))
	}
	return t
}

// Begin opens a span for key. Re-beginning an active key is a no-op.
func (t *Tracer) Begin(key string) {
	if t == nil || !t.reg.enabled.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := t.active[key]; live {
		return
	}
	if len(t.active) >= t.cap {
		t.drops.Inc()
		return
	}
	t.active[key] = &span{start: now, last: now}
}

// Mark records that key just completed stage.
func (t *Tracer) Mark(key, stage string) {
	if t == nil || !t.reg.enabled.Load() {
		return
	}
	idx, known := t.index[stage]
	if !known {
		panic("metrics: unknown tracer stage " + stage)
	}
	now := time.Now()
	t.mu.Lock()
	sp, live := t.active[key]
	if !live {
		t.mu.Unlock()
		return
	}
	if idx < sp.next {
		t.mu.Unlock()
		t.misorders.Inc()
		return
	}
	elapsed := now.Sub(sp.last)
	sp.last = now
	sp.next = idx + 1
	t.mu.Unlock()
	t.hists[idx].ObserveDuration(elapsed)
}

// End retires key's span, observing its total lifetime.
func (t *Tracer) End(key string) {
	if t == nil || !t.reg.enabled.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	sp, live := t.active[key]
	if live {
		delete(t.active, key)
	}
	t.mu.Unlock()
	if live {
		t.total.ObserveDuration(now.Sub(sp.start))
	}
}

// Drop retires key's span without observing anything.
func (t *Tracer) Drop(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	_, live := t.active[key]
	if live {
		delete(t.active, key)
	}
	t.mu.Unlock()
	if live {
		t.drops.Inc()
	}
}

// Active reports the number of open spans.
func (t *Tracer) Active() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}
