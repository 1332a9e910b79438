package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/workload"
)

// The fastsync experiment quantifies what the checkpoint subsystem buys: it
// builds the same chain twice on durable LSM stores — once with sealed
// checkpoints + pruning, once with full history and no checkpoints — then
// wipes a follower's disk and times how long the node takes to rejoin at the
// cluster tip. The first cell rejoins by streaming the latest snapshot; the
// second replays every block from genesis. It also reports the on-disk store
// footprint of each mode, showing the pruning bound.

type fastSyncRow struct {
	// Mode labels the rejoin path under measurement.
	Mode string `json:"mode"`
	// Blocks is the chain height the rejoining node must reach.
	Blocks uint64 `json:"blocks"`
	// JoinMs is wall-clock wipe-to-tip rejoin time.
	JoinMs float64 `json:"join_ms"`
	// StoreBytes is the per-node on-disk footprint (WAL + sstables) right
	// before the wipe.
	StoreBytes int64 `json:"store_bytes"`
	// SnapshotInstalls counts snapshot installs during the rejoin: 1+ for
	// the fast-sync cell, 0 for genesis replay.
	SnapshotInstalls uint64 `json:"snapshot_installs"`
}

func runFastSync(blocks int) (any, error) {
	if blocks <= 0 {
		blocks = 12
	}
	fmt.Println("=== Fast-sync: wipe-and-rejoin, snapshot+pruning vs genesis replay ===")
	cells := []struct {
		mode                string
		interval, retention uint64
	}{
		{"snapshot fast-sync (pruned history)", 4, 4},
		{"genesis block replay (full history)", 0, 0},
	}
	rows := make([]fastSyncRow, 0, len(cells))
	for _, c := range cells {
		row, err := fastSyncCell(c.mode, uint64(blocks), c.interval, c.retention)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.mode, err)
		}
		rows = append(rows, row)
	}
	fmt.Printf("%-38s %-8s %12s %13s %10s\n", "Mode", "Blocks", "Join (ms)", "Store (KiB)", "Installs")
	for _, r := range rows {
		fmt.Printf("%-38s %-8d %12.1f %13.1f %10d\n",
			r.Mode, r.Blocks, r.JoinMs, float64(r.StoreBytes)/1024, r.SnapshotInstalls)
	}
	return rows, nil
}

// fastSyncCell runs one chain-build + wipe-rejoin measurement.
func fastSyncCell(mode string, blocks, interval, retention uint64) (fastSyncRow, error) {
	row := fastSyncRow{Mode: mode, Blocks: blocks}
	dir, err := os.MkdirTemp("", "confide-fastsync-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			BlockMaxTxs: 8,
			EngineOpts:  core.AllOptimizations(),
			// Both rejoin paths start on a 10 ms beat: the checkpoint
			// announce, and the heartbeat that tells a replica how far
			// behind it is.
			Consensus:          consensus.Options{HeartbeatInterval: 10 * time.Millisecond},
			SyncInterval:       10 * time.Millisecond,
			CheckpointInterval: interval,
			Retention:          retention,
		},
		StoreDir: dir,
	})
	if err != nil {
		return row, err
	}
	defer cluster.Close()
	defer cluster.StartDriver(0)()

	addr := chain.AddressFromBytes([]byte("fastsync-contract"))
	owner := chain.AddressFromBytes([]byte("fastsync-owner"))
	code, err := workload.Compile(workload.ABSTransferFlatSrc, core.VMCVM)
	if err != nil {
		return row, err
	}
	if err := cluster.DeployEverywhere(addr, owner, core.VMCVM, code, true, 1); err != nil {
		return row, err
	}
	client, err := core.NewClient(cluster.EnvelopePublicKey())
	if err != nil {
		return row, err
	}

	// One transaction at a time into an idle cluster, so each is cut alone
	// and the chain reaches a known height.
	rng := rand.New(rand.NewSource(7))
	for i := uint64(0); i < blocks; i++ {
		method, args := workload.ABSFlatInput(rng)
		tx, _, err := client.NewConfidentialTx(addr, method, args...)
		if err != nil {
			return row, err
		}
		if err := cluster.Submit(tx); err != nil {
			return row, err
		}
		if err := cluster.WaitIdle(10 * time.Second); err != nil {
			return row, err
		}
	}

	leader := cluster.Leader()
	victim := -1
	for i, n := range cluster.Nodes {
		if n != leader {
			victim = i
			break
		}
	}
	row.StoreBytes, err = dirSize(filepath.Join(dir, fmt.Sprintf("node-%d", victim)))
	if err != nil {
		return row, err
	}

	tip := leader.Height()
	installsBefore := metrics.Default().Snapshot().CounterSum("confide_snapshot_installs_total")
	start := time.Now()
	if err := cluster.RestartNode(victim, true); err != nil {
		return row, err
	}
	if err := cluster.Nodes[victim].WaitHeight(tip, 60*time.Second); err != nil {
		return row, err
	}
	row.JoinMs = float64(time.Since(start).Microseconds()) / 1e3
	row.SnapshotInstalls = metrics.Default().Snapshot().CounterSum("confide_snapshot_installs_total") - installsBefore
	return row, nil
}

// dirSize sums file sizes under root (the node's WAL + sstables).
func dirSize(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
