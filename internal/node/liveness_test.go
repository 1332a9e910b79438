package node

import (
	"bytes"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/p2p"
)

// faultOpts is a cluster tuned for fast failure detection: short view
// timeout, aggressive retransmission and sync gossip.
func faultOpts(nodes int) ClusterOptions {
	return ClusterOptions{
		Nodes: nodes,
		Node: Config{
			Consensus: consensus.Options{
				ViewTimeout:        250 * time.Millisecond,
				RetransmitInterval: 20 * time.Millisecond,
				RetransmitMax:      200 * time.Millisecond,
				HeartbeatInterval:  30 * time.Millisecond,
			},
			SyncInterval: 40 * time.Millisecond,
		},
	}
}

// waitUntil polls cond until it holds or the deadline passes. The cluster
// under test drives itself (StartDriver).
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("cluster did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAutomaticFailoverNoManualVotes is the tentpole scenario: the leader is
// dead when a transaction reaches the survivors, and the cluster recovers
// with ZERO RequestViewChange calls — the progress timers detect the silent
// leader, vote, and the successor commits the transaction.
func TestAutomaticFailoverNoManualVotes(t *testing.T) {
	c := newTestCluster(t, faultOpts(4))
	client := newClusterClient(t, c)
	c.Nodes[0].Endpoint().Crash() // view-0 leader dies
	defer c.StartDriver(0)()

	tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("af"), []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}

	survivors := c.Nodes[1:]
	waitUntil(t, 15*time.Second, func() bool {
		for _, n := range survivors {
			if !receiptOK(n, tx) {
				return false
			}
		}
		return true
	})
	if c.Nodes[1].Replica().ViewChanges() == 0 {
		t.Error("recovery happened without a view change — leader crash not exercised")
	}
}

// TestPartitionHealConvergence partitions one node away from the majority,
// commits blocks on the majority side, heals, and requires the isolated
// node to catch up via block sync to an identical chain.
func TestPartitionHealConvergence(t *testing.T) {
	c := newTestCluster(t, faultOpts(4))
	client := newClusterClient(t, c)
	defer c.StartDriver(0)()

	// Isolate node 3; {0,1,2} keep a 2f+1 quorum.
	c.Net().Partition([][]p2p.NodeID{{0, 1, 2}})

	var txs []*chain.Tx
	for i := 0; i < 3; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("ph"), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
		if err := c.Nodes[0].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		majority := c.Nodes[:3]
		target := c.Nodes[0].Height() + 1
		waitUntil(t, 10*time.Second, func() bool {
			for _, n := range majority {
				if n.Height() < target {
					return false
				}
			}
			return true
		})
	}
	if h := c.Nodes[3].Height(); h != 0 {
		t.Fatalf("isolated node committed %d blocks through a partition", h)
	}

	c.Net().Heal()
	tip := c.Nodes[0].Height()
	if err := c.Nodes[3].WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("healed node never caught up: %v", err)
	}

	// Identical chain: byte-identical headers at every height, and every
	// transaction's receipt visible on the rejoined node.
	for h := uint64(0); h < tip; h++ {
		want, err := c.Nodes[0].HeaderAt(h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Nodes[3].HeaderAt(h)
		if err != nil {
			t.Fatalf("rejoined node missing block %d: %v", h, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("chains diverge at height %d after heal", h)
		}
	}
	for _, tx := range txs {
		if !receiptOK(c.Nodes[3], tx) {
			t.Fatalf("rejoined node lacks receipt for %x", tx.Hash())
		}
	}

	// The rejoined node participates in new consensus rounds, not just sync.
	tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("ph"), []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool { return receiptOK(c.Nodes[3], tx) })
}
