package node

import (
	"testing"
	"time"

	"confide/internal/chain"
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
		defer n.StartProposer(0)()
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

// TestProposerCutsOnSizeOrLinger pins the cutting rule: a full block goes out
// at once, a partial one when it has lingered, and nothing pooled means
// nothing proposed.
func TestProposerCutsOnSizeOrLinger(t *testing.T) {
	const linger = 300 * time.Millisecond
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{BlockMaxTxs: 8}})
	client := newClusterClient(t, c)
	leader := c.Leader()
	stop := c.StartDriver(linger)
	defer func() { stop() }()

	// submit pools n credits on the leader, requires them to commit in one
	// block, and returns the time from submission to that block's cut.
	submit := func(n int) time.Duration {
		t.Helper()
		height := leader.Height()
		txs := make([]*chain.Tx, n)
		for i := range txs {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("cut"), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			txs[i] = tx
		}
		start := time.Now()
		for _, tx := range txs {
			if err := leader.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		waitCommittedEverywhere(t, c, txs, 10*time.Second)
		if got := leader.Height(); got != height+1 {
			t.Fatalf("%d transactions went out in %d blocks, want 1", n, got-height)
		}
		block, err := leader.BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		if len(block.Txs) != n {
			t.Fatalf("block carries %d transactions, want %d", len(block.Txs), n)
		}
		return time.Unix(0, int64(block.Header.Timestamp)).Sub(start)
	}

	full, lingered := mBlocksCutFull.Value(), mBlocksCutLinger.Value()
	if waited := submit(8); waited >= linger {
		t.Errorf("a full block waited %s, linger is %s", waited, linger)
	}
	if f, l := mBlocksCutFull.Value()-full, mBlocksCutLinger.Value()-lingered; f != 1 || l != 0 {
		t.Errorf("full block counted as %d full, %d linger cuts", f, l)
	}
	if waited := submit(3); waited < linger {
		t.Errorf("a partial block was cut after %s, before its %s linger", waited, linger)
	}
	if f, l := mBlocksCutFull.Value()-full, mBlocksCutLinger.Value()-lingered; f != 1 || l != 1 {
		t.Errorf("after the partial block: %d full, %d linger cuts; want 1 and 1", f, l)
	}

	// Idle, on a linger short enough to wait out twenty times over.
	stop()
	const short = 10 * time.Millisecond
	stop = c.StartDriver(short)
	height, proposals := leader.Height(), leader.replica.InFlight()
	time.Sleep(20 * short)
	if got := leader.Height(); got != height || leader.replica.InFlight() != proposals {
		t.Errorf("idle cluster went from height %d to %d (%d in flight): empty blocks", height, got, leader.replica.InFlight())
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
