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
// timeout, aggressive retransmission and heartbeats.
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
// node to catch up by committed fetch to an identical chain.
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
		// Read the target first: the block can apply before SubmitTx returns.
		target := c.Nodes[0].Height() + 1
		if err := c.Nodes[0].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		majority := c.Nodes[:3]
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

// TestCatchUpAcrossNoOpSequences: consensus sequences and chain heights part
// ways whenever a sequence orders no block (a view change's gap-fill no-op, a
// stale proposal). A follower cut off after one such sequence is still
// served, for every sequence it asks for, what that sequence ordered — the
// block recorded at it, or an empty payload — and rejoins at the tip.
func TestCatchUpAcrossNoOpSequences(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	leader, victim := c.Leader(), c.Nodes[victimOf(c)]
	var rest []*Node
	var restIDs []p2p.NodeID
	for _, n := range c.Nodes {
		if n != victim {
			rest = append(rest, n)
			restIDs = append(restIDs, n.ID())
		}
	}
	noOp := func(nodes []*Node) {
		t.Helper()
		seq, err := leader.Replica().Propose(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if err := n.Replica().WaitDelivered(seq+1, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	block := func(nodes []*Node) {
		t.Helper()
		submitCredits(t, c, nodes, "gap", 1)
		proposeLeaderOnly(t, c, nodes, nil)
	}

	block(c.Nodes) // seq 0: height 0
	noOp(c.Nodes)  // seq 1
	c.Net().Partition([][]p2p.NodeID{{victim.ID()}, restIDs})
	block(rest) // seq 2: height 1
	noOp(rest)  // seq 3
	block(rest) // seq 4: height 2

	server := rest[0]
	for seq, height := range map[uint64]int{0: 0, 1: -1, 2: 1, 3: -1, 4: 2, 5: -2} {
		got := server.readCommitted(seq)
		switch height {
		case -1:
			if got == nil || len(got) != 0 {
				t.Errorf("seq %d ordered no block: served %d bytes (nil %v), want an empty payload", seq, len(got), got == nil)
			}
		case -2:
			if got != nil {
				t.Errorf("seq %d is past the tip: served %d bytes, want nil", seq, len(got))
			}
		default:
			want, _, _ := server.store.Get(BlockKey(uint64(height)))
			if !bytes.Equal(got, want) {
				t.Errorf("seq %d: served %d bytes, want block %d", seq, len(got), height)
			}
		}
	}

	c.Net().Heal()
	if err := victim.WaitHeight(3, 10*time.Second); err != nil {
		t.Fatalf("cut-off follower never caught up: %v", err)
	}
	if err := victim.Replica().WaitDelivered(5, 5*time.Second); err != nil {
		t.Fatalf("cut-off follower's replica stayed behind: %v", err)
	}
	for h := uint64(0); h < 3; h++ {
		want, _, _ := server.store.Get(BlockKey(h))
		if got, _, _ := victim.store.Get(BlockKey(h)); !bytes.Equal(got, want) {
			t.Errorf("block %d differs on the rejoined follower", h)
		}
	}
}

// TestCatchUpAcrossNoOpsNearCheckpoint: a follower cut off within one
// checkpoint interval of the next checkpoint is refused the snapshot, so its
// peers must serve it blocks even when the sequences after its height ordered
// none — with full history, and with the scan starting at a prune floor.
// Serving is gated on the height the follower really has, not on a lower
// bound from sequence arithmetic (short by one block per no-op).
func TestCatchUpAcrossNoOpsNearCheckpoint(t *testing.T) {
	const interval, noOps = 4, 3
	for _, tc := range []struct {
		name           string
		retention, pre uint64 // pre: blocks the follower holds when cut off
	}{
		{"full history", 0, 1},
		{"pruned below the follower", 1, interval - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{
				CheckpointInterval: interval,
				Retention:          tc.retention,
				SyncInterval:       15 * time.Millisecond,
			}})
			leader, victim := c.Leader(), c.Nodes[victimOf(c)]
			var rest []*Node
			var restIDs []p2p.NodeID
			for _, n := range c.Nodes {
				if n != victim {
					rest = append(rest, n)
					restIDs = append(restIDs, n.ID())
				}
			}
			block := func(nodes []*Node) {
				t.Helper()
				submitCredits(t, c, nodes, "near", 1)
				proposeLeaderOnly(t, c, nodes, nil)
			}
			for range tc.pre {
				block(c.Nodes)
			}
			c.Net().Partition([][]p2p.NodeID{{victim.ID()}, restIDs})
			for range noOps {
				seq, err := leader.Replica().Propose(nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range rest {
					if err := n.Replica().WaitDelivered(seq+1, 5*time.Second); err != nil {
						t.Fatal(err)
					}
				}
			}
			for leader.Height() < interval {
				block(rest)
			}
			// The checkpoint is exported, and pruning anchored at it, just
			// after the block that reaches it applies. With Retention the
			// floor lands at the follower's height.
			server := rest[0]
			waitUntil(t, 5*time.Second, func() bool {
				return server.snapshots.LatestHeight() == interval &&
					(tc.retention == 0 || server.PrunedTo() == tc.pre)
			})

			// The follower asks for the sequence after its tip, which ordered
			// no block; the block it needs comes noOps sequences later.
			next := tc.pre
			if got := server.readCommitted(next); got == nil || len(got) != 0 {
				t.Errorf("seq %d ordered no block: served %d bytes (nil %v), want an empty payload", next, len(got), got == nil)
			}
			want, _, _ := server.store.Get(BlockKey(tc.pre))
			if got := server.readCommitted(next + noOps); !bytes.Equal(got, want) {
				t.Errorf("seq %d: served %d bytes, want block %d", next+noOps, len(got), tc.pre)
			}

			c.Net().Heal()
			if err := victim.WaitHeight(interval, 10*time.Second); err != nil {
				t.Fatalf("follower within one interval of the checkpoint never caught up: %v", err)
			}
			if got, _, _ := victim.store.Get(BlockKey(tc.pre)); !bytes.Equal(got, want) {
				t.Errorf("follower lacks block %d: it took the snapshot, block catch-up was expected", tc.pre)
			}
		})
	}
}
