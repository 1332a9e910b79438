package node_test

import (
	"testing"
	"time"

	"confide/internal/chaos"
)

// The drills run here, next to the code they exercise; the harness itself is
// internal/chaos, which imports this package and the gateway.

// TestChaosSeededDrill runs the full chaos harness on a small seeded
// schedule: 4 nodes, 10% message loss plus duplication/reordering, one
// leader crash-and-restart and one partition/heal — and requires every
// transaction committed everywhere with identical chains. No manual
// RequestViewChange anywhere: recovery is entirely automatic.
func TestChaosSeededDrill(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:    4,
		Txs:      24,
		Seed:     1,
		DropRate: 0.10,
		Timeout:  90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Height == 0 {
		t.Fatal("chaos run committed no blocks")
	}
	if report.ViewChanges == 0 {
		t.Error("leader crash caused no view change — fault schedule did not bite")
	}
	if report.Net.PartitionDrops == 0 {
		t.Error("partition dropped no messages — fault schedule did not bite")
	}
	if report.Net.RateDrops == 0 {
		t.Error("drop rate lost no messages — fault schedule did not bite")
	}
	t.Logf("chaos: height=%d viewChanges=%d elapsed=%s events=%v",
		report.Height, report.ViewChanges, report.Elapsed, report.Events)
}

// TestChaosWipeRejoinDrill adds the wipe-and-rejoin fault to the drill: a
// follower's store is erased mid-run under message loss, and convergence
// must come through snapshot fast-sync — certified inside chaos.Run from the
// registry deltas (install count ≥ wipes, zero failed installs) and here
// from the report.
func TestChaosWipeRejoinDrill(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:       4,
		Txs:         24,
		Seed:        3,
		DropRate:    0.05,
		WipeRejoins: 1,
		Timeout:     90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Metrics["confide_snapshot_installs_total"]; got == 0 {
		t.Error("wipe drill recorded no snapshot installs")
	}
	if got := report.Metrics["confide_node_snapshot_install_failures_total"]; got != 0 {
		t.Errorf("wipe drill recorded %d failed snapshot installs", got)
	}
	t.Logf("chaos+wipe: height=%d installs=%d badChunks=%d elapsed=%s events=%v",
		report.Height, report.Metrics["confide_snapshot_installs_total"],
		report.Metrics["confide_node_snapshot_bad_chunks_total"], report.Elapsed, report.Events)
}

// TestChaosRotationDrill injects a key-epoch rotation into the fault
// schedule: a governance transaction orders it while messages drop, a leader
// crashes and a partition splits, and the run converges only when every
// replica has activated the new epoch with the whole workload committed.
// chaos.Run certifies the rotation from the registry (ring advances ≥ nodes ×
// rotations); the report re-checks it here.
func TestChaosRotationDrill(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:     4,
		Txs:       24,
		Seed:      5,
		DropRate:  0.05,
		Rotations: 1,
		Timeout:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Metrics["confide_keyepoch_rotations_total"]; got < 4 {
		t.Errorf("rotation drill advanced %d rings, want ≥ 4", got)
	}
	t.Logf("chaos+rotation: height=%d ringAdvances=%d elapsed=%s events=%v",
		report.Height, report.Metrics["confide_keyepoch_rotations_total"],
		report.Elapsed, report.Events)
}

// TestChaosLossless is the control: the same harness with every fault
// disabled must converge quickly.
func TestChaosLossless(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:         4,
		Txs:           12,
		Seed:          2,
		DropRate:      -1,
		DuplicateRate: -1,
		ReorderRate:   -1,
		LeaderCrashes: 1, // schedule still runs; recovery must be clean
		Partitions:    1,
		Timeout:       60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Height == 0 {
		t.Fatal("lossless chaos run committed no blocks")
	}
}

// TestChaosPipelinedLeaderKill runs the drill with pipelined proposals and
// parallel OCC lanes: leaders keep a 4-deep in-flight window, delivered
// blocks execute behind ordering, and the scheduled leader crash therefore
// lands mid-pipeline — with predicted blocks in flight and others queued
// for execution. chaos.Run certifies that no committed transaction is lost
// and every replica converges on a byte-identical chain, which is exactly
// the property PR 5 bought by serializing the driver.
func TestChaosPipelinedLeaderKill(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:         4,
		Txs:           32,
		Seed:          1,
		DropRate:      0.05,
		LeaderCrashes: 1,
		Partitions:    1,
		PipelineDepth: 4,
		ExecWorkers:   2,
		Timeout:       90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Height == 0 {
		t.Fatal("pipelined chaos run committed no blocks")
	}
	if report.ViewChanges == 0 {
		t.Error("leader kill mid-pipeline caused no view change — fault did not bite")
	}
	t.Logf("pipelined chaos: height=%d viewChanges=%d elapsed=%s events=%v",
		report.Height, report.ViewChanges, report.Elapsed, report.Events)
}

// TestChaosCrashDrill is the randomized certification: seeded crash points
// under live traffic with transient disk faults layered on, certified inside
// chaos.Run (no committed transaction lost, identical chain prefixes, every
// crash recovered, sealed state re-verified on every node).
func TestChaosCrashDrill(t *testing.T) {
	report, err := chaos.Run(chaos.Options{
		Nodes:      4,
		Txs:        24,
		Seed:       7,
		DropRate:   0.05,
		Crashes:    2,
		DiskFaults: true,
		Timeout:    90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Metrics["confide_node_crash_recoveries_total"]; got < 2 {
		t.Errorf("crash drill recorded %d recoveries, want ≥ 2", got)
	}
	if report.Disk.Crashes < 2 {
		t.Errorf("fault filesystems recorded %d crashes, want ≥ 2", report.Disk.Crashes)
	}
	t.Logf("chaos+crash: height=%d recoveries=%d quarantines=%d disk=%+v elapsed=%s events=%v",
		report.Height, report.Metrics["confide_node_crash_recoveries_total"],
		report.Metrics["confide_node_store_quarantines_total"], report.Disk, report.Elapsed, report.Events)
}
