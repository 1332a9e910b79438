package node

import (
	"bytes"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/keyepoch"
	"confide/internal/metrics"
)

// Cluster-level key-rotation drills: a governance transaction rotates the
// whole network's engine secrets at a consensus-ordered height, under client
// traffic, with the acceptance window keeping in-flight envelopes alive and
// everything beyond it rejected identically on every replica.

// rotateAndActivate submits a rotation through the leader and drives rounds
// until every node has activated the target epoch.
func rotateAndActivate(t *testing.T, c *Cluster, delay uint64) keyepoch.Rotation {
	t.Helper()
	govTx, rot, err := c.RotateEpoch(delay)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.ProcessRound(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, n := range c.Nodes {
			if n.CurrentEpoch() < rot.NewEpoch {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotation to epoch %d never activated (heights %d..)", rot.NewEpoch, c.Nodes[0].Height())
		}
	}
	// The governance receipt is public and persisted on every replica.
	for _, n := range c.Nodes {
		rpt, err := n.Receipt(govTx.Hash(), nil)
		if err != nil {
			t.Fatalf("node %d: governance receipt: %v", n.ID(), err)
		}
		if rpt.Status != chain.ReceiptOK {
			t.Fatalf("node %d: rotation rejected: %s", n.ID(), rpt.Output)
		}
	}
	return rot
}

// TestClusterRotationMidTraffic rotates the key epoch while credit traffic
// flows. Transactions sealed to the pre-rotation pk_tx keep committing (the
// acceptance window covers them) and post-rotation clients use the new key;
// no transaction fails and every replica lands on the same epoch and state.
func TestClusterRotationMidTraffic(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})
	oldClient := newClusterClient(t, c) // seals to epoch 1

	var committed []*chain.Tx
	credit := func(client testClient, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("rot"), []byte{1})
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
			committed = append(committed, tx)
		}
	}

	credit(oldClient, 3) // pre-rotation traffic
	rot := rotateAndActivate(t, c, 2)
	if rot.NewEpoch != 2 {
		t.Fatalf("rotation targeted epoch %d", rot.NewEpoch)
	}

	// Old-epoch envelopes are still inside the window after activation.
	credit(oldClient, 3)

	// A fresh client picks up the rotated key and epoch tag.
	epoch, pk := c.EnvelopeKeyInfo()
	if epoch != 2 {
		t.Fatalf("cluster reports epoch %d, want 2", epoch)
	}
	newClient := newClusterClient(t, c)
	newClient.SetEnvelopeKey(epoch, pk)
	credit(newClient, 3)

	// Zero failed transactions: every committed receipt is OK.
	for _, tx := range committed {
		if !receiptOK(c.Nodes[0], tx) {
			t.Fatalf("committed tx %s has no OK receipt", tx.Hash())
		}
	}
	want := readBalance(t, c.Nodes[0], c, "rot")
	if want[0] != 9 {
		t.Fatalf("balance = %d, want 9 (a credit was lost in rotation)", want[0])
	}
	for _, n := range c.Nodes[1:] {
		if got := readBalance(t, n, c, "rot"); !bytes.Equal(got, want) {
			t.Fatalf("node %d balance diverged: %v vs %v", n.ID(), got, want)
		}
	}
	for _, n := range c.Nodes {
		if got := n.CurrentEpoch(); got != 2 {
			t.Fatalf("node %d at epoch %d, want 2", n.ID(), got)
		}
	}
}

// TestClusterStaleEnvelopeRejectedBeyondWindow drives two rotations, pushing
// epoch 1 outside the acceptance window: epoch-1 envelopes are then dropped
// at pre-verification on every replica — deterministically, from public
// header bytes — and no replica commits them.
func TestClusterStaleEnvelopeRejectedBeyondWindow(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})
	staleClient := newClusterClient(t, c) // epoch 1

	// Seed a balance, then rotate twice (epoch 3, window 1 → epoch 1 stale).
	tx, _, err := staleClient.NewConfidentialTx(ledgerAddr, "credit", acct("stale"), []byte{5})
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
	rotateAndActivate(t, c, 2)
	rotateAndActivate(t, c, 2)

	rejBefore := keyepochStaleRejections()
	late, _, err := staleClient.NewConfidentialTx(ledgerAddr, "credit", acct("stale"), []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(late); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	count, err := c.ProcessRound(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("stale envelope committed in a block of %d txs", count)
	}
	if keyepochStaleRejections() == rejBefore {
		t.Error("stale-rejection counter never moved")
	}
	if _, found, _ := c.Nodes[0].StoredReceipt(late.Hash()); found {
		t.Error("stale transaction produced a receipt")
	}
	// Balance unchanged: only the seed credit landed.
	epoch, pk := c.EnvelopeKeyInfo()
	client := newClusterClient(t, c)
	client.SetEnvelopeKey(epoch, pk)
	read, _, err := client.NewConfidentialTx(ledgerAddr, "read", acct("stale"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Nodes[0].ConfidentialEngine().Execute(read)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK || res.Receipt.Output[0] != 5 {
		t.Fatalf("balance after stale rejection = %v", res.Receipt.Output)
	}
}

// TestClusterRotationValidation exercises deterministic rejection of bad
// rotations: wrong successor epoch, activation height in the past, and a
// second rotation while one is pending. Every replica records the identical
// failed receipt.
func TestClusterRotationValidation(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})

	submitGov := func(rot keyepoch.Rotation) *chain.Tx {
		t.Helper()
		tx := &chain.Tx{Type: chain.TxTypeGovernance, Payload: rot.Encode()}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := c.ProcessRound(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	expectFailed := func(tx *chain.Tx, why string) {
		t.Helper()
		for _, n := range c.Nodes {
			stored, found, err := n.StoredReceipt(tx.Hash())
			if err != nil || !found {
				t.Fatalf("%s: receipt missing on node %d", why, n.ID())
			}
			rpt, err := chain.DecodeReceipt(stored)
			if err != nil {
				t.Fatal(err)
			}
			if rpt.Status != chain.ReceiptFailed {
				t.Fatalf("%s: accepted on node %d", why, n.ID())
			}
		}
	}

	h := c.Nodes[0].Height()
	expectFailed(submitGov(keyepoch.Rotation{NewEpoch: 3, ActivationHeight: h + 5}), "epoch skip")
	h = c.Nodes[0].Height()
	expectFailed(submitGov(keyepoch.Rotation{NewEpoch: 2, ActivationHeight: h}), "past activation")

	// A valid schedule far in the future, then a second one while pending.
	h = c.Nodes[0].Height()
	good := submitGov(keyepoch.Rotation{NewEpoch: 2, ActivationHeight: h + 50})
	stored, found, _ := c.Nodes[0].StoredReceipt(good.Hash())
	if !found {
		t.Fatal("valid rotation receipt missing")
	}
	if rpt, _ := chain.DecodeReceipt(stored); rpt.Status != chain.ReceiptOK {
		t.Fatalf("valid rotation rejected: %s", rpt.Output)
	}
	for _, n := range c.Nodes {
		if p := n.PendingRotation(); p == nil || p.NewEpoch != 2 {
			t.Fatalf("node %d: pending rotation not recorded", n.ID())
		}
	}
	h = c.Nodes[0].Height()
	expectFailed(submitGov(keyepoch.Rotation{NewEpoch: 2, ActivationHeight: h + 60}), "double schedule")
}

// TestClusterResealDrainsAndZeroizes rotates, runs the deterministic sweep,
// and requires: all sealed records migrated to the new epoch, the retired
// epoch zeroized once out of window, and balances intact afterwards.
func TestClusterResealDrainsAndZeroizes(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})
	client := newClusterClient(t, c)
	for i := 0; i < 3; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("drain"), []byte{2})
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
	}

	rotateAndActivate(t, c, 2)
	for _, n := range c.Nodes {
		st, err := n.ResealNow(0)
		if err != nil {
			t.Fatalf("node %d: sweep: %v", n.ID(), err)
		}
		if !st.Done {
			t.Fatalf("node %d: sweep incomplete: %+v", n.ID(), st)
		}
		// Epoch 1 drained but in-window: still retained.
		if !n.ConfidentialEngine().StaleEpochsRetained() {
			t.Fatalf("node %d: in-window epoch dropped early", n.ID())
		}
	}
	rotateAndActivate(t, c, 2)
	for _, n := range c.Nodes {
		if _, err := n.ResealNow(0); err != nil {
			t.Fatal(err)
		}
		// Now epoch 1 is out of window and drained: zeroized by ResealNow.
		if got := n.ConfidentialEngine().CurrentEpoch(); got != 3 {
			t.Fatalf("node %d at epoch %d", n.ID(), got)
		}
	}

	// No sealed record on any node still carries a pre-rotation tag.
	for _, n := range c.Nodes {
		n.Store().Iterate([]byte("st/"), func(k, v []byte) bool {
			if e, _, err := keyepoch.ParseRecord(v); err == nil && e < 3 {
				t.Errorf("node %d: record %q still at epoch %d", n.ID(), k, e)
			}
			return true
		})
	}
	want := readBalance(t, c.Nodes[0], c, "drain")
	if want[0] != 6 {
		t.Fatalf("balance lost in re-seal: %v", want)
	}
}

// TestClusterWipeRejoinAcrossEpochBoundary wipes a follower after a rotation
// and requires it to rejoin via snapshot fast-sync: the checkpoint manifest
// is MAC'd under the rotated epoch's key (recorded in the manifest), the
// joiner verifies it by forward-deriving that epoch, and after install it
// adopts the rotated epoch from the snapshot's ke/ markers.
func TestClusterWipeRejoinAcrossEpochBoundary(t *testing.T) {
	const interval = 3
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node: Config{
			CheckpointInterval: interval,
			SnapshotChunkBytes: 256,
			SyncInterval:       15 * time.Millisecond,
			ResealRate:         -1,
		},
	})
	driveBlocks(t, c, 2, "boundary")
	rotateAndActivate(t, c, 2)
	// Cross a checkpoint boundary post-rotation so the latest manifest is
	// sealed under epoch 2.
	for c.Nodes[0].Height()%interval != 0 {
		driveBlocks(t, c, 1, "boundary")
	}
	driveBlocks(t, c, 1, "boundary")
	tip := c.Nodes[0].Height()

	victim := victimOf(c)
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Nodes[victim]
	if got := rejoined.CurrentEpoch(); got != 1 {
		t.Fatalf("wiped node boots at epoch %d, want 1", got)
	}
	if err := rejoined.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("no rejoin across the epoch boundary: %v", err)
	}
	if got := mSyncPathSnapshot.Value(); got == 0 {
		t.Error("rejoin did not take the snapshot path")
	}
	if got := rejoined.CurrentEpoch(); got != 2 {
		t.Fatalf("rejoined node at epoch %d, want 2", got)
	}

	want := readBalance(t, c.Nodes[(victim+1)%4], c, "boundary")
	if got := readBalance(t, rejoined, c, "boundary"); !bytes.Equal(got, want) {
		t.Errorf("balance diverged after epoch-boundary rejoin: %v vs %v", got, want)
	}

	// The rejoined node keeps consensus — including through a further
	// rotation submitted after its return.
	rotateAndActivate(t, c, 2)
	for _, n := range c.Nodes {
		if got := n.CurrentEpoch(); got != 3 {
			t.Fatalf("node %d at epoch %d after post-rejoin rotation", n.ID(), got)
		}
	}
}

// keyepochStaleRejections reads the shared stale-rejection counter.
func keyepochStaleRejections() uint64 {
	return metrics.Default().Snapshot().CounterSum("confide_keyepoch_stale_envelope_rejections_total")
}
