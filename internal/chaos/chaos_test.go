package chaos

import (
	"strings"
	"testing"
	"time"
)

// The seeded drills that exercise the node and the gateway run from those
// packages' tests (internal/node/chaos_test.go, internal/gateway/e2e_test.go);
// what is tested here is the harness's own contract and the one combination
// no other test runs.

func TestRunRejectsUnrunnableOptions(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Nodes: 3}, "need ≥ 4 nodes"},
		{Options{DiskFaults: true}, "set Crashes > 0"},
	} {
		if _, err := Run(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%+v) = %v, want an error containing %q", tc.opts, err, tc.want)
		}
	}
}

// TestCrashDrillPipelined fires the crash points with a deep window and OCC
// lanes, so a power cut lands with several delivered blocks queued behind
// execution: the queued blocks are dropped with the node and must come back
// through block catch-up with nothing lost.
func TestCrashDrillPipelined(t *testing.T) {
	report, err := Run(Options{
		Seed:          2,
		DropRate:      0.05,
		Crashes:       2,
		PipelineDepth: 8,
		ExecWorkers:   4,
		Timeout:       90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Metrics["confide_node_crash_recoveries_total"]; got < 2 {
		t.Errorf("crash drill recorded %d recoveries, want ≥ 2", got)
	}
	t.Logf("pipelined crash drill: height=%d elapsed=%s events=%v", report.Height, report.Elapsed, report.Events)
}
