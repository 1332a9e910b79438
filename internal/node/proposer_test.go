package node

import (
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/metrics"
)

// The proposer loop's rules, and the driver's behaviour around restarts.

func preVerifiedTotal() uint64 {
	return metrics.Default().Snapshot().CounterSum("confide_core_preverified_total")
}

// TestOnlyLeaderPreVerifies pins the loop's first rule: under the driver each
// transaction is pre-verified once in the whole cluster, by the leader, and
// the followers execute on its enclave's attestation — no replica opens
// an envelope with sk_tx at execution. The load is paced, so the leader is
// never too busy for a follower to have found the time.
func TestOnlyLeaderPreVerifies(t *testing.T) {
	cluster := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node:  Config{BlockMaxTxs: 8, PipelineDepth: 4},
	})
	txs := pipelineLedgerTxs(t, cluster, 11, 64)
	leader := cluster.Leader()
	preVerified, before := preVerifiedTotal(), readAttestCounters()
	height := leader.Height()
	stop := cluster.StartDriver(0)
	defer stop()
	for _, tx := range txs {
		if err := leader.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitCommittedEverywhere(t, cluster, txs, 30*time.Second)
	stop()

	if got := preVerifiedTotal() - preVerified; got != uint64(len(txs)) {
		t.Errorf("%d pre-verifications of %d transactions, want one each (the leader's)", got, len(txs))
	}
	blocks := leader.Height() - height
	for _, n := range cluster.Nodes {
		if err := n.WaitHeight(leader.Height(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// WaitHeight returns at the height advance; the attestation counters of
	// the last block were bumped before it.
	d := readAttestCounters().since(before)
	if d.ecdh != 0 {
		t.Errorf("%d envelopes opened with sk_tx at execution, want 0", d.ecdh)
	}
	if want := 4 * blocks; d.accepted != want || d.rejected != 0 || d.absent != 0 {
		t.Errorf("attestations over %d blocks: %d accepted, %d rejected, %d absent; want %d accepted", blocks, d.accepted, d.rejected, d.absent, want)
	}
}

// TestNewLeaderVerifiesColdPool pins the other half of that rule: followers
// hold gossiped transactions nobody verified, the leader dies, and the view
// change's winner pre-verifies its cold pool and commits all of them under
// valid attestations.
func TestNewLeaderVerifiesColdPool(t *testing.T) {
	c := newTestCluster(t, faultOpts(4))
	survivors := c.Nodes[1:]
	txs := submitCredits(t, c, c.Nodes, "cold", 12)
	for _, n := range survivors {
		if n.VerifiedPoolLen() != 0 {
			t.Fatalf("node %d verified %d transactions before it led", n.ID(), n.VerifiedPoolLen())
		}
	}
	preVerified, before := preVerifiedTotal(), readAttestCounters()
	c.Nodes[0].Kill()
	for _, n := range survivors {
		defer n.StartProposer()()
	}

	waitUntil(t, 20*time.Second, func() bool {
		for _, n := range survivors {
			for _, tx := range txs {
				if !receiptOK(n, tx) {
					return false
				}
			}
		}
		return true
	})
	got := preVerifiedTotal() - preVerified
	if got < uint64(len(txs)) {
		t.Errorf("%d pre-verifications for %d committed transactions", got, len(txs))
	}
	if c.Nodes[1].Replica().ViewChanges() == 1 && got != uint64(len(txs)) {
		t.Errorf("one view change, yet %d pre-verifications of %d transactions: someone besides the successor verified", got, len(txs))
	}
	if d := readAttestCounters().since(before); d.accepted == 0 || d.rejected != 0 {
		t.Errorf("successor's blocks: %d attestations accepted, %d rejected", d.accepted, d.rejected)
	}
}

// TestProposerCutsOnSizeOrIdle pins the cutting rule: a full block goes out
// at once, and so does a partial one when the ordering window is empty; a
// partial pool waits while a proposal is in flight and goes out when that
// proposal is delivered; an idle cluster cuts nothing; and after a view
// change that carries a prepared block, the new leader still cuts a partial
// one.
func TestProposerCutsOnSizeOrIdle(t *testing.T) {
	const commitTopic = "pbft/commit" // dropping it holds a proposal prepared but undelivered
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{
		BlockMaxTxs: 8,
		Consensus: consensus.Options{
			// Long enough to hold a proposal without a view change; the
			// quick retransmits deliver it soon after the hold ends.
			ViewTimeout:        2 * time.Second,
			RetransmitInterval: 20 * time.Millisecond,
			RetransmitMax:      100 * time.Millisecond,
		},
	}})
	client := newClusterClient(t, c)
	stop := c.StartDriver(0)
	defer func() { stop() }()

	credits := func(n int) []*chain.Tx {
		t.Helper()
		txs := make([]*chain.Tx, n)
		for i := range txs {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("cut"), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			txs[i] = tx
		}
		return txs
	}
	submit := func(to *Node, txs []*chain.Tx) {
		t.Helper()
		for _, tx := range txs {
			if err := to.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// pool submits txs with the proposers stopped, so that one pass finds
	// all of them, and returns when it restarted them.
	pool := func(to *Node, txs []*chain.Tx) time.Time {
		t.Helper()
		stop()
		submit(to, txs)
		start := time.Now()
		stop = c.StartDriver(0)
		return start
	}
	// committedIn waits for txs to commit everywhere and requires the block
	// at height to carry exactly them.
	committedIn := func(txs []*chain.Tx, height uint64) *chain.Block {
		t.Helper()
		waitCommittedEverywhere(t, c, txs, 10*time.Second)
		for _, n := range c.Nodes {
			// The receipts land in the block's batch just before the tip
			// moves; the idle check below reads the tip.
			if err := n.WaitHeight(height+1, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		block, err := c.Nodes[0].BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		want := map[chain.Hash]bool{}
		for _, tx := range txs {
			want[tx.Hash()] = true
		}
		for _, tx := range block.Txs {
			delete(want, tx.Hash())
		}
		if len(block.Txs) != len(txs) || len(want) != 0 {
			t.Fatalf("block %d carries %d transactions, want the %d submitted together", height, len(block.Txs), len(txs))
		}
		return block
	}
	full, idle := mBlocksCutFull.Value(), mBlocksCutIdle.Value()
	cuts := func(wantFull, wantIdle uint64) {
		t.Helper()
		if f, i := mBlocksCutFull.Value()-full, mBlocksCutIdle.Value()-idle; f != wantFull || i != wantIdle {
			t.Errorf("%d full and %d idle cuts, want %d and %d", f, i, wantFull, wantIdle)
		}
	}

	leader := c.Leader()
	height := leader.Height()
	fullBlock := credits(8)
	pool(leader, fullBlock)
	committedIn(fullBlock, height)
	cuts(1, 0)

	// No timer: the cut follows the pre-verification pass.
	partial := credits(3)
	start := pool(leader, partial)
	if waited := time.Unix(0, int64(committedIn(partial, height+1).Header.Timestamp)).Sub(start); waited > 250*time.Millisecond {
		t.Errorf("a partial block on an empty window waited %s", waited)
	}
	cuts(1, 1)

	// Hold one partial block in flight: the next partial pool waits for its
	// delivery, not for a clock.
	c.Net().SetTopicDropRate(commitTopic, 1)
	held := credits(3)
	pool(leader, held)
	waitUntil(t, 5*time.Second, func() bool { return leader.Replica().InFlight() == 1 })
	behind := credits(2)
	submit(leader, behind)
	waitUntil(t, 5*time.Second, func() bool { return leader.VerifiedPoolLen() == len(behind) })
	time.Sleep(50 * time.Millisecond)
	if got := leader.Replica().InFlight(); got != 1 || leader.VerifiedPoolLen() != len(behind) {
		t.Errorf("with a proposal in flight: %d in flight, %d pooled; want 1 and %d", got, leader.VerifiedPoolLen(), len(behind))
	}
	cuts(1, 2)
	c.Net().SetTopicDropRate(commitTopic, 0)
	committedIn(held, height+2)
	committedIn(behind, height+3)
	cuts(1, 3)
	if !leader.IsLeader() {
		t.Fatal("the view changed while a proposal was held; the hold outlasted ViewTimeout")
	}

	// Idle: nothing pooled, nothing proposed.
	height = leader.Height()
	time.Sleep(100 * time.Millisecond)
	if got := leader.Height(); got != height || leader.Replica().InFlight() != 0 {
		t.Errorf("idle cluster went from height %d to %d (%d in flight): empty blocks", height, got, leader.Replica().InFlight())
	}

	// The leader's partial block prepares everywhere but cannot commit, so
	// the view changes and carries it; its delivery frees the new leader's
	// window.
	c.Net().SetTopicDropRate(commitTopic, 1)
	carried := credits(3)
	pool(leader, carried)
	var successor *Node
	waitUntil(t, 10*time.Second, func() bool {
		for _, n := range c.Nodes {
			if n != leader && n.IsLeader() {
				successor = n
				return true
			}
		}
		return false
	})
	c.Net().SetTopicDropRate(commitTopic, 0)
	if block := committedIn(carried, height); block.Header.Proposer != uint32(leader.ID()) {
		t.Fatalf("the held block was re-cut by node %d, not carried across the view change", block.Header.Proposer)
	}
	// The successor held gossiped copies of the carried transactions; let
	// its pools and window settle before the last partial pool.
	waitUntil(t, 10*time.Second, func() bool {
		return successor.Replica().InFlight() == 0 && successor.VerifiedPoolLen() == 0 && successor.UnverifiedPoolLen() == 0
	})
	idle, height = mBlocksCutIdle.Value(), successor.Height()
	last := credits(2)
	pool(successor, last)
	if block := committedIn(last, height); block.Header.Proposer != uint32(successor.ID()) {
		t.Errorf("the partial block after the view change came from node %d, want the new leader %d", block.Header.Proposer, successor.ID())
	}
	if got := mBlocksCutIdle.Value() - idle; got != 1 {
		t.Errorf("the new leader's partial block counted %d idle cuts, want 1", got)
	}
}

// TestRestartUnderDriver restarts a follower and then the leader while the
// driver runs and traffic flows: the replacements are driven like the nodes
// they replace, and every submitted transaction commits everywhere.
func TestRestartUnderDriver(t *testing.T) {
	opts := faultOpts(4)
	opts.StoreDir = t.TempDir()
	opts.Node.BlockMaxTxs = 8
	opts.Node.PipelineDepth = 4
	c := newTestCluster(t, opts)
	defer c.StartDriver(0)()

	all := pipelineLedgerTxs(t, c, 3, 72)
	submit := func(txs []*chain.Tx) {
		t.Helper()
		for _, tx := range txs {
			if err := c.Leader().SubmitTx(tx); err != nil && err != ErrAlreadyCommitted {
				t.Fatal(err)
			}
		}
	}
	submit(all[:24])
	if err := c.RestartNode(followerOf(c), false); err != nil {
		t.Fatal(err)
	}
	submit(all[24:48])
	if err := c.RestartNode(int(c.Leader().ID()), false); err != nil {
		t.Fatal(err)
	}
	submit(all[48:])
	// A restarted node's receipt index starts empty (confidential receipts
	// exist only sealed); the store is what says a transaction committed.
	waitUntil(t, 60*time.Second, func() bool {
		for _, n := range c.Nodes {
			for _, tx := range all {
				if _, found, _ := n.StoredReceipt(tx.Hash()); !found {
					return false
				}
			}
		}
		return true
	})
}
