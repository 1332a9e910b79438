// Package metrics is the platform's zero-dependency observability core: a
// process-wide registry of named instruments (atomic counters, gauges and
// fixed-bucket histograms with quantile snapshots) plus a lightweight
// per-transaction stage tracer (tracer.go) and a Prometheus-text exposition
// writer (expo.go).
//
// Design constraints, in order:
//
//  1. Low overhead. Every hot-path operation (Counter.Add, Gauge.Add,
//     Histogram.Observe) is one atomic load of the enabled flag plus one or
//     two atomic adds — cheap enough that instrumentation stays enabled in
//     benchmarks (the overhead guard in the bench package keeps the delta
//     against a disabled registry under 2% on the Figure 10 grid).
//  2. Nil- and disabled-safety. Methods on nil instruments are no-ops, and
//     SetEnabled(false) turns the whole registry into a no-op recorder, so
//     call sites never need conditionals.
//  3. Stable identity. An instrument is identified by its family name plus
//     its sorted label set; asking the registry for the same identity twice
//     returns the same instrument, so packages can cache instruments in
//     package-level vars at init and never touch the registry again.
//
// Metric naming follows the Prometheus convention used across the repo:
// confide_<subsystem>_<noun>_<unit>, with _total for counters (e.g.
// confide_tee_ecalls_total, confide_pipeline_stage_seconds).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// L is one label (name/value pair) attached to an instrument.
type L struct {
	K, V string
}

// kind discriminates instrument families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds instrument families. The zero value is not usable; create
// with NewRegistry or use the process-wide Default().
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series map[string]any // labelKey → *Counter | *Gauge | *Histogram
	order  []string       // labelKeys in registration order
	labels map[string][]L // labelKey → sorted labels
}

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.enabled.Store(true)
	return r
}

// defaultRegistry is the process-wide registry every instrumented package
// binds to at init.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// SetEnabled flips the registry between recording and no-op. Disabling does
// not clear accumulated values.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// validateName enforces the Prometheus metric-name charset.
func validateName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
}

// labelKey canonicalizes a label set. Labels are sorted by name; duplicate
// names are a programming error.
func labelKey(labels []L) (string, []L) {
	if len(labels) == 0 {
		return "", nil
	}
	sorted := append([]L(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			if sorted[i-1].K == l.K {
				panic(fmt.Sprintf("metrics: duplicate label %q", l.K))
			}
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	return b.String(), sorted
}

// getFamily returns (creating if needed) the family for name, enforcing
// one-kind-per-name.
func (r *Registry) getFamily(name, help string, k kind) *family {
	validateName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   k,
			series: make(map[string]any),
			labels: make(map[string][]L),
		}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	if f.help == "" && help != "" {
		f.help = help
	}
	return f
}

// getSeries returns (creating via make) the series for the label set.
func (f *family) getSeries(labels []L, make func() any) any {
	key, sorted := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	f.order = append(f.order, key)
	f.labels[key] = sorted
	return s
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

// Counter is a monotone cumulative count. Safe for concurrent use; methods
// on a nil Counter are no-ops.
type Counter struct {
	enabled *atomic.Bool
	v       atomic.Uint64
}

// Counter returns the counter for name+labels, registering it on first use.
func (r *Registry) Counter(name, help string, labels ...L) *Counter {
	f := r.getFamily(name, help, kindCounter)
	return f.getSeries(labels, func() any {
		return &Counter{enabled: &r.enabled}
	}).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || !c.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

// Gauge is an instantaneous signed value. Safe for concurrent use; methods
// on a nil Gauge are no-ops.
type Gauge struct {
	enabled *atomic.Bool
	v       atomic.Int64
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...L) *Gauge {
	f := r.getFamily(name, help, kindGauge)
	return f.getSeries(labels, func() any {
		return &Gauge{enabled: &r.enabled}
	}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ---------------------------------------------------------------------------
// Snapshots (programmatic access — what the chaos harness asserts on)
// ---------------------------------------------------------------------------

// Snapshot is a point-in-time copy of every series in a registry, keyed by
// the full series name: `name` or `name{k="v",...}`.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, f := range r.familiesInOrder() {
		f.mu.Lock()
		for _, key := range f.order {
			series := seriesName(f.name, f.labels[key])
			switch s := f.series[key].(type) {
			case *Counter:
				snap.Counters[series] = s.Value()
			case *Gauge:
				snap.Gauges[series] = s.Value()
			case *Histogram:
				snap.Histograms[series] = s.Snapshot()
			}
		}
		f.mu.Unlock()
	}
	return snap
}

// CounterSum sums every series of a counter family (all label combinations).
func (s Snapshot) CounterSum(name string) uint64 {
	var total uint64
	for series, v := range s.Counters {
		if seriesFamily(series) == name {
			total += v
		}
	}
	return total
}

// HistogramCount sums observation counts across a histogram family.
func (s Snapshot) HistogramCount(name string) uint64 {
	var total uint64
	for series, h := range s.Histograms {
		if seriesFamily(series) == name {
			total += h.Count
		}
	}
	return total
}

// MeanSince is the mean of the observations histogram series name took
// between the earlier snapshot before and s (0 when it took none).
func (s Snapshot) MeanSince(before Snapshot, name string) float64 {
	h, b := s.Histograms[name], before.Histograms[name]
	if h.Count == b.Count {
		return 0
	}
	return (h.Sum - b.Sum) / float64(h.Count-b.Count)
}

// seriesFamily strips the label block from a series name.
func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// seriesName renders `name{k="v",...}` (or bare name without labels).
func seriesName(name string, labels []L) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) familiesInOrder() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// since is a tiny helper for "observe elapsed" call sites.
func since(start time.Time) float64 { return time.Since(start).Seconds() }
