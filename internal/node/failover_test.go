package node

import (
	"testing"
	"time"
)

// TestLeaderFailover drives the full platform through a leader crash: the
// survivors vote a view change, the round-robin successor takes over, and
// a transaction that was gossiped before the crash still commits.
func TestLeaderFailover(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)

	// A transaction reaches every node's pool via gossip...
	tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("fo"), []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].SubmitTx(tx); err != nil { // submitted via a follower
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)

	// ...then the leader crashes before proposing it.
	old := c.Leader()
	if old.ID() != 0 {
		t.Fatalf("expected node 0 to lead view 0, got %d", old.ID())
	}
	old.Endpoint().Crash()
	for _, n := range c.Nodes[1:] {
		n.Replica().RequestViewChange()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !c.Nodes[1].IsLeader() {
		time.Sleep(200 * time.Microsecond)
	}
	if !c.Nodes[1].IsLeader() {
		t.Fatal("node 1 did not take over leadership")
	}

	// The new leader proposes from its own (gossiped) pool.
	for _, n := range c.Nodes[1:] {
		n.PreVerifyPending()
	}
	count, err := c.Nodes[1].ProposeBlock()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("new leader proposed %d txs, want the gossiped 1", count)
	}
	for _, n := range c.Nodes[1:] {
		if err := n.WaitHeight(1, 5*time.Second); err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
	}
	if !receiptOK(c.Nodes[2], tx) {
		t.Fatal("transaction lost across failover")
	}
}
