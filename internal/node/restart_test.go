package node

import (
	"bytes"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/snapshot"
)

// TestClusterRestartRecoversChain shuts a durable (LSM-backed) cluster
// down and boots a fresh one over the same stores with the same engine
// secrets (the HSM/KMS restart path): heights resume, committed state and
// receipts remain readable, SPV proofs still verify, and new transactions
// commit on top of the old chain.
func TestClusterRestartRecoversChain(t *testing.T) {
	dir := t.TempDir()
	c1 := newTestCluster(t, ClusterOptions{Nodes: 4, StoreDir: dir})
	secrets := c1.Secrets
	client := newClusterClient(t, c1)

	tx1, ktx1, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("persist"), []byte{77})
	if err := c1.Submit(tx1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := c1.ProcessRound(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	preHeight := c1.Leader().Height()
	if preHeight == 0 {
		t.Fatal("nothing committed before restart")
	}
	c1.Close()

	// Reboot over the same stores with pre-provisioned secrets.
	c2, err := NewCluster(ClusterOptions{
		Nodes:    4,
		StoreDir: dir,
		Secrets:  secrets,
		Node:     Config{EngineOpts: core.AllOptimizations()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)

	for _, n := range c2.Nodes {
		if n.Height() != preHeight {
			t.Fatalf("node %d resumed at height %d, want %d", n.ID(), n.Height(), preHeight)
		}
	}
	// Old receipt readable (sealed form + the owner's k_tx).
	sealed, found, err := c2.Nodes[1].StoredReceipt(tx1.Hash())
	if err != nil || !found {
		t.Fatalf("pre-restart receipt lost: %v", err)
	}
	if _, err := core.OpenReceipt(sealed, ktx1, tx1.Hash()); err != nil {
		t.Fatalf("pre-restart receipt unreadable: %v", err)
	}
	// The index of what committed is the store, so nothing was rebuilt at
	// boot and nothing is missing: every restarted node still proves the old
	// transaction to its peers and refuses its re-submission, by hand and by
	// gossip.
	for i, n := range c2.Nodes {
		proof, err := n.ProveTx(tx1.Hash())
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := VerifyConsensusRead(proof, []*Node{c2.Nodes[(i+1)%4], c2.Nodes[(i+2)%4]}, 2); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := n.SubmitTx(tx1); err != ErrAlreadyCommitted {
			t.Errorf("node %d resubmit: err = %v, want ErrAlreadyCommitted", i, err)
		}
		if err := n.admit(nil, tx1.Encode()); err != ErrAlreadyCommitted {
			t.Errorf("node %d re-gossip: err = %v, want ErrAlreadyCommitted", i, err)
		}
		if n.Backlog() != 0 {
			t.Errorf("node %d pooled a committed transaction", i)
		}
	}

	// New work commits on top: old state visible, balance accumulates.
	client2, _ := core.NewClient(c2.EnvelopePublicKey())
	tx2, _, _ := client2.NewConfidentialTx(ledgerAddr, "credit", acct("persist"), []byte{3})
	if err := c2.Submit(tx2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := c2.ProcessRound(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c2.Nodes {
		if n.Height() != preHeight+1 {
			t.Fatalf("node %d at height %d after new block, want %d", n.ID(), n.Height(), preHeight+1)
		}
	}
	read, _, _ := client2.NewConfidentialTx(ledgerAddr, "read", acct("persist"))
	res, err := c2.Nodes[3].ConfidentialEngine().Execute(read)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK || res.Receipt.Output[0] != 80 {
		t.Fatalf("balance after restart = %v (%d), want [80]", res.Receipt.Output, res.Receipt.Status)
	}
}

// TestOrdinaryRestartQuarantinesHalfInstalledSnapshot: a node that crashed
// between snapshot.Install's first mutation and the base-marker commit, then
// boots the ordinary way (RestartNode without wipe, confide-node -store),
// must go through crash recovery like ReviveNode does — quarantine the
// half-adopted checkpoint and rebuild from its peers — not run on it.
func TestOrdinaryRestartQuarantinesHalfInstalledSnapshot(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Nodes:    4,
		StoreDir: t.TempDir(),
		Node:     Config{CheckpointInterval: 3, SyncInterval: 15 * time.Millisecond},
	})
	driveBlocks(t, c, 4, "half") // height 4: a checkpoint at 3 carries the contract
	tip := c.Nodes[0].Height()

	victim := victimOf(c)
	if err := c.Nodes[victim].Store().Put(snapshot.InstallingKey, []byte{1}); err != nil {
		t.Fatal(err)
	}
	quarantines := mStoreQuarantines.Value()
	if err := c.RestartNode(victim, false); err != nil {
		t.Fatal(err)
	}
	restarted := c.Nodes[victim]
	if _, found, err := restarted.Store().Get(snapshot.InstallingKey); err != nil || found {
		t.Fatalf("restarted on a store that still carries the half-installed-snapshot marker (found=%v err=%v)", found, err)
	}
	if got := mStoreQuarantines.Value() - quarantines; got != 1 {
		t.Errorf("confide_node_store_quarantines_total moved by %d, want 1", got)
	}
	if err := restarted.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("quarantined node never rejoined: %v", err)
	}
	want := readBalance(t, c.Nodes[(victim+1)%4], c, "half")
	if got := readBalance(t, restarted, c, "half"); !bytes.Equal(got, want) {
		t.Errorf("balance on restarted node = %v, want %v", got, want)
	}
}
