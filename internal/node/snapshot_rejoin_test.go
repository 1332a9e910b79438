package node

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/metrics"
)

// Cluster-level snapshot fast-sync drills: a node is wiped and must rejoin
// through the checkpoint/snapshot path (not genesis replay), including under
// chunk loss and corruption, and after its peers have pruned the history a
// genesis replay would need.

// driveBlocks commits `rounds` single-credit blocks against acct(account)
// and returns the transactions (for receipt checks later).
func driveBlocks(t *testing.T, c *Cluster, rounds int, account string) []*chain.Tx {
	t.Helper()
	client := newClusterClient(t, c)
	txs := make([]*chain.Tx, 0, rounds)
	for i := 0; i < rounds; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct(account), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := c.ProcessRound(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

// readBalance executes a read against one node's confidential engine.
func readBalance(t *testing.T, n *Node, c *Cluster, account string) []byte {
	t.Helper()
	client := newClusterClient(t, c)
	readTx, _, err := client.NewConfidentialTx(ledgerAddr, "read", acct(account))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.ConfidentialEngine().Execute(readTx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("read failed: status %d (%s)", res.Receipt.Status, res.Receipt.Output)
	}
	return res.Receipt.Output
}

// victimOf picks a non-leader node to wipe so consensus keeps running on the
// surviving quorum.
func victimOf(c *Cluster) int {
	leader := int(c.Leader().ID())
	for i := range c.Nodes {
		if i != leader {
			return i
		}
	}
	return 0
}

func countBlockPayloads(t *testing.T, n *Node) int {
	t.Helper()
	count := 0
	if err := n.Store().Iterate([]byte("blk/"), func(_, _ []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return count
}

// TestClusterWipeAndRejoinSnapshotSync wipes a follower at height ≥ 2×
// CheckpointInterval and requires it to rejoin through snapshot fast-sync —
// certified from the metrics registry (snapshot path taken, zero bad chunks,
// zero failed installs) — replaying only the tail above the checkpoint, and
// to converge to the same state as its peers.
func TestClusterWipeAndRejoinSnapshotSync(t *testing.T) {
	const interval = 3
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node: Config{
			CheckpointInterval: interval,
			SnapshotChunkBytes: 256, // force a multi-chunk parallel fetch
			SyncInterval:       15 * time.Millisecond,
			// Heartbeats outpace checkpoint announces, so the wiped node
			// learns it is behind and fetches before it hears of the
			// checkpoint: only readCommitted's threshold keeps it from
			// starting genesis replay.
			Consensus: consensus.Options{HeartbeatInterval: 5 * time.Millisecond},
		},
	})
	txs := driveBlocks(t, c, 2*interval+1, "wipe") // height 7: checkpoints at 3 and 6
	tip := c.Nodes[0].Height()
	if tip < 2*interval {
		t.Fatalf("height %d below 2×interval", tip)
	}

	before := metrics.Default().Snapshot()
	pathBefore := mSyncPathSnapshot.Value()
	blocksBefore := mSyncPathBlocks.Value()
	badBefore := mSnapBadChunks.Value()
	failBefore := mSnapInstallFailures.Value()

	victim := victimOf(c)
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Nodes[victim]
	if h := rejoined.Height(); h != 0 {
		t.Fatalf("wiped node starts at height %d, want 0", h)
	}
	if err := rejoined.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("wiped node never caught up: %v", err)
	}

	// Certify the path from the registry: the snapshot route was taken, the
	// chunks all verified, and nothing bad was installed.
	if got := mSyncPathSnapshot.Value() - pathBefore; got == 0 {
		t.Error("rejoin did not take the snapshot path")
	}
	if got := mSnapBadChunks.Value() - badBefore; got != 0 {
		t.Errorf("clean network produced %d bad chunks", got)
	}
	if got := mSnapInstallFailures.Value() - failBefore; got != 0 {
		t.Errorf("%d snapshot installs failed", got)
	}
	after := metrics.Default().Snapshot()
	if d := after.CounterSum("confide_snapshot_installs_total") - before.CounterSum("confide_snapshot_installs_total"); d == 0 {
		t.Error("snapshot install counter never moved")
	}

	// The node adopted the latest checkpoint and replayed less than one
	// interval of blocks.
	base := rejoined.PrunedTo()
	if base == 0 || base%interval != 0 {
		t.Errorf("store base %d is not a checkpoint height", base)
	}
	if tail := tip - base; tail >= interval {
		t.Errorf("replayed a %d-block tail, want < %d", tail, interval)
	}
	if fetched := mSyncPathBlocks.Value() - blocksBefore; fetched >= interval {
		t.Errorf("fetched %d committed blocks, want only the tail (< %d)", fetched, interval)
	}
	if got := mSnapInstallHeight.Value(); uint64(got) != base {
		t.Errorf("install-height gauge %d, want %d", got, base)
	}
	// The checkpoint carried one sequence record, its tip block's: the node
	// holds per-block records from the checkpoint tip up and none below.
	seqs := 0
	if err := rejoined.Store().Iterate([]byte("meta/seq/"), func(_, _ []byte) bool {
		seqs++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(tip - base + 1); seqs != want {
		t.Errorf("%d sequence records after install at %d (tip %d), want %d", seqs, base, tip, want)
	}

	// State converged: same tip hash, same balances, and receipts from
	// pre-checkpoint blocks are served from the snapshot's rc/ records.
	for _, n := range c.Nodes {
		if n.Height() != tip {
			t.Fatalf("node %d at height %d, want %d", n.ID(), n.Height(), tip)
		}
	}
	rejoined.mu.Lock()
	gotTip := rejoined.prevHash
	rejoined.mu.Unlock()
	c.Nodes[(victim+1)%4].mu.Lock()
	wantTip := c.Nodes[(victim+1)%4].prevHash
	c.Nodes[(victim+1)%4].mu.Unlock()
	if gotTip != wantTip {
		t.Errorf("tip hash diverged after rejoin: %x vs %x", gotTip[:8], wantTip[:8])
	}
	want := readBalance(t, c.Nodes[(victim+1)%4], c, "wipe")
	if got := readBalance(t, rejoined, c, "wipe"); !bytes.Equal(got, want) {
		t.Errorf("balance on rejoined node = %v, want %v", got, want)
	}
	if _, found, err := rejoined.StoredReceipt(txs[0].Hash()); err != nil || !found {
		t.Errorf("pre-checkpoint receipt missing after snapshot join (found=%v err=%v)", found, err)
	}

	// And the node participates in consensus again.
	driveBlocks(t, c, 1, "wipe")
	if h := rejoined.Height(); h != tip+1 {
		t.Errorf("rejoined node at %d after new block, want %d", h, tip+1)
	}
}

// TestClusterWipeRejoinUnderChunkFaults corrupts then drops snapshot chunk
// responses. Phase 1 (100% corruption) must produce verified-and-rejected
// chunks with retries and no install; phase 2 (corruption lifted, 35% loss)
// must converge to the peers' state with zero bad installs.
func TestClusterWipeRejoinUnderChunkFaults(t *testing.T) {
	const interval = 3
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node: Config{
			CheckpointInterval: interval,
			SnapshotChunkBytes: 256,
			SyncInterval:       15 * time.Millisecond,
		},
	})
	driveBlocks(t, c, 2*interval+1, "fault")
	tip := c.Nodes[0].Height()

	badBefore := mSnapBadChunks.Value()
	retryBefore := mSnapFetchRetries.Value()
	failBefore := mSnapInstallFailures.Value()
	pathBefore := mSyncPathSnapshot.Value()

	// Phase 1: every chunk response corrupted in flight. The content-address
	// check must reject them all; nothing can install.
	c.Net().SetTopicCorruptRate(snapChunkRespTopic, 1.0)
	victim := victimOf(c)
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Nodes[victim]

	deadline := time.Now().Add(15 * time.Second)
	for mSnapBadChunks.Value() == badBefore || mSnapFetchRetries.Value() == retryBefore {
		if time.Now().After(deadline) {
			t.Fatalf("no bad-chunk rejections observed under 100%% corruption (bad=%d retries=%d)",
				mSnapBadChunks.Value()-badBefore, mSnapFetchRetries.Value()-retryBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := mSyncPathSnapshot.Value() - pathBefore; got != 0 {
		t.Fatalf("snapshot path completed %d times with all chunks corrupted", got)
	}
	if h := rejoined.Height(); h != 0 {
		t.Fatalf("node advanced to height %d on corrupted chunks", h)
	}

	// Phase 2: lift corruption, keep 35% loss on the chunk topic. Retries
	// and peer rotation must still converge the node.
	c.Net().SetTopicCorruptRate(snapChunkRespTopic, 0)
	c.Net().SetTopicDropRate(snapChunkRespTopic, 0.35)
	defer c.Net().SetTopicDropRate(snapChunkRespTopic, 0)
	if err := rejoined.WaitHeight(tip, 30*time.Second); err != nil {
		t.Fatalf("no convergence under chunk loss: %v", err)
	}

	if got := mSyncPathSnapshot.Value() - pathBefore; got == 0 {
		t.Error("rejoin did not take the snapshot path")
	}
	if got := mSnapInstallFailures.Value() - failBefore; got != 0 {
		t.Errorf("%d bad installs under faults, want 0", got)
	}
	want := readBalance(t, c.Nodes[(victim+1)%4], c, "fault")
	if got := readBalance(t, rejoined, c, "fault"); !bytes.Equal(got, want) {
		t.Errorf("balance on rejoined node = %v, want %v", got, want)
	}
}

// TestClusterPruneThenSnapshotSync runs with pruning on (durable stores):
// peers retire history below the checkpoint, so genesis replay is
// impossible and a wiped node can only rejoin via snapshot. Disk stays
// bounded: retained payloads never exceed Retention + one interval.
func TestClusterPruneThenSnapshotSync(t *testing.T) {
	const (
		interval  = 3
		retention = 3
	)
	c := newTestCluster(t, ClusterOptions{
		Nodes:    4,
		StoreDir: t.TempDir(),
		Node: Config{
			CheckpointInterval: interval,
			Retention:          retention,
			SnapshotChunkBytes: 256,
			SyncInterval:       15 * time.Millisecond,
		},
	})
	txs := driveBlocks(t, c, 3*interval, "prune") // height 9: checkpoints 3, 6, 9
	tip := c.Nodes[0].Height()

	// Pruning floor on live nodes: min(checkpoint, height − retention) = 6.
	survivor := c.Nodes[victimOf(c)]
	if _, err := survivor.BlockAt(0); err == nil {
		t.Error("genesis payload still present with pruning on")
	}
	if _, err := survivor.BlockAt(tip - 1); err != nil {
		t.Errorf("tip payload pruned: %v", err)
	}
	for _, n := range c.Nodes {
		if got := countBlockPayloads(t, n); got > retention+interval {
			t.Errorf("node %d retains %d payloads, want ≤ %d", n.ID(), got, retention+interval)
		}
	}
	// Old receipts survive pruning (rc/ is state, not payload history).
	if _, found, err := survivor.StoredReceipt(txs[0].Hash()); err != nil || !found {
		t.Errorf("receipt lost to pruning (found=%v err=%v)", found, err)
	}
	// A tx→height record lives exactly as long as the payload it points at:
	// one per retained block's transaction and no other, so a pruned
	// transaction is "not found", not an I/O error on a missing block.
	for _, n := range c.Nodes {
		records := 0
		if err := n.Store().Iterate([]byte("meta/tx/"), func(_, at []byte) bool {
			records++
			if h := binary.BigEndian.Uint64(at); h < n.PrunedTo() {
				t.Errorf("node %d: a tx→height record points at pruned block %d", n.ID(), h)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if want := countBlockPayloads(t, n); records != want { // driveBlocks: one transaction a block
			t.Errorf("node %d: %d tx→height records for %d retained single-transaction blocks", n.ID(), records, want)
		}
		if _, err := n.ProveTx(txs[0].Hash()); err != ErrNotFound {
			t.Errorf("node %d: ProveTx of a pruned transaction: err = %v, want ErrNotFound", n.ID(), err)
		}
		if _, err := n.ProveTx(txs[len(txs)-1].Hash()); err != nil {
			t.Errorf("node %d: ProveTx of a retained transaction: %v", n.ID(), err)
		}
	}

	pathBefore := mSyncPathSnapshot.Value()
	blocksPathBefore := mSyncPathBlocks.Value()
	victim := victimOf(c)
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Nodes[victim]
	if err := rejoined.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("wiped node never caught up over pruned peers: %v", err)
	}

	if got := mSyncPathSnapshot.Value() - pathBefore; got == 0 {
		t.Error("rejoin over pruned peers did not take the snapshot path")
	}
	_ = blocksPathBefore // tail replay may or may not run (tail can be empty)
	want := readBalance(t, c.Nodes[(victim+1)%4], c, "prune")
	if got := readBalance(t, rejoined, c, "prune"); !bytes.Equal(got, want) {
		t.Errorf("balance on rejoined node = %v, want %v", got, want)
	}
	if got := countBlockPayloads(t, rejoined); got > retention+interval {
		t.Errorf("rejoined node holds %d payloads, want ≤ %d", got, retention+interval)
	}

	// Round trip: the pruned-and-rejoined cluster still commits.
	driveBlocks(t, c, 1, "prune")
	for _, n := range c.Nodes {
		if n.Height() != tip+1 {
			t.Errorf("node %d at height %d after new block, want %d", n.ID(), n.Height(), tip+1)
		}
	}
}
