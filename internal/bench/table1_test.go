package bench

import (
	"strings"
	"testing"
	"time"

	"confide/internal/metrics"
)

// The renderer reads rows from registry deltas: exact counts, durations
// estimated as count × the sampled occurrences' mean, longest row first, and
// nothing for an operation that did not run in between.
func TestRenderOpProfile(t *testing.T) {
	ops := func(name string) string { return `confide_core_ops_total{op="` + name + `"}` }
	seconds := func(name string) string { return `confide_core_op_seconds{op="` + name + `"}` }
	before := metrics.Snapshot{
		Counters: map[string]uint64{ops("GetStorage"): 100, ops("Contract Call"): 5, ops("Code Load"): 7},
		Histograms: map[string]metrics.HistogramSnapshot{
			seconds("GetStorage"): {Count: 2, Sum: 4e-6},
		},
	}
	after := metrics.Snapshot{
		Counters: map[string]uint64{ops("GetStorage"): 251, ops("Contract Call"): 36, ops("Code Load"): 7},
		Histograms: map[string]metrics.HistogramSnapshot{
			seconds("GetStorage"):    {Count: 5, Sum: 7e-6},   // three samples of 1 µs
			seconds("Contract Call"): {Count: 1, Sum: 100e-6}, // one of 100 µs
		},
	}
	rows := OpProfile(before, after)
	want := map[string]OpRow{
		"GetStorage":    {Count: 151, Duration: 151 * time.Microsecond},
		"Contract Call": {Count: 31, Duration: 3100 * time.Microsecond},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for name, w := range want {
		got := rows[name]
		if got.Count != w.Count || (got.Duration-w.Duration).Abs() > time.Microsecond {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
	table := RenderOpProfile(rows)
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "Ratio") ||
		!strings.HasPrefix(lines[1], "Contract Call") || !strings.HasPrefix(lines[2], "GetStorage") {
		t.Fatalf("table:\n%s", table)
	}
	if !strings.Contains(lines[1], "95.4%") || !strings.Contains(lines[2], "151") {
		t.Errorf("table rows:\n%s", table)
	}
}
