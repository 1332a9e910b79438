package node

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/p2p"
)

// pipelineLedgerTxs builds a conflict-heavy confidential workload: seeded
// credits followed by moves/credits over a small hot account set, so the
// parallel OCC lanes see real read/write conflicts.
func pipelineLedgerTxs(t *testing.T, c *Cluster, seed int64, n int) []*chain.Tx {
	t.Helper()
	client := newClusterClient(t, c)
	rng := rand.New(rand.NewSource(seed))
	accounts := []string{"acc-a", "acc-b", "acc-c", "acc-d"}
	var txs []*chain.Tx
	for _, a := range accounts {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct(a), []byte{200})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	for len(txs) < n {
		from := accounts[rng.Intn(len(accounts))]
		to := accounts[rng.Intn(len(accounts))]
		var tx *chain.Tx
		var err error
		if rng.Intn(3) == 0 {
			tx, _, err = client.NewConfidentialTx(ledgerAddr, "credit", acct(from), []byte{byte(1 + rng.Intn(5))})
		} else {
			tx, _, err = client.NewConfidentialTx(ledgerAddr, "move", acct(from), acct(to))
		}
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

// waitCommittedEverywhere polls until every transaction has a receipt on
// every node, or fails at the deadline.
func waitCommittedEverywhere(t *testing.T, c *Cluster, txs []*chain.Tx, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		missing := 0
		for _, n := range c.Nodes {
			for _, tx := range txs {
				if _, found, _ := n.StoredReceipt(tx.Hash()); !found {
					missing++
				}
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d (node, tx) receipts still missing after %s", missing, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// headerChainRoot hashes node's header chain [0, height) — equal roots mean
// byte-identical chains, and execution determinism then implies identical
// state.
func headerChainRoot(t *testing.T, n *Node, height uint64) chain.Hash {
	t.Helper()
	hasher := sha256.New()
	for h := uint64(0); h < height; h++ {
		hdr, err := n.HeaderAt(h)
		if err != nil {
			t.Fatalf("node %d missing header %d: %v", n.ID(), h, err)
		}
		hasher.Write(hdr)
	}
	var root chain.Hash
	copy(root[:], hasher.Sum(nil))
	return root
}

// TestPipelinedDriverCommitsAll runs the background driver with a deep
// proposal window and parallel OCC lanes: every submitted transaction must
// commit on every node, with byte-identical header chains — the basic
// no-tx-loss property PR 5 bought by serializing, now under pipelining.
func TestPipelinedDriverCommitsAll(t *testing.T) {
	cluster, err := NewCluster(ClusterOptions{
		Nodes: 4,
		Node: Config{
			BlockMaxTxs:   8,
			PipelineDepth: 4,
			ExecWorkers:   4,
			EngineOpts:    core.AllOptimizations(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.DeployEverywhere(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
		t.Fatal(err)
	}
	txs := pipelineLedgerTxs(t, cluster, 7, 96)
	stop := cluster.StartDriver(0)
	defer stop()
	for _, tx := range txs {
		if err := cluster.Leader().SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitCommittedEverywhere(t, cluster, txs, 30*time.Second)
	stop()

	// With 96 txs over 8-tx blocks the run needs ≥ 12 blocks; pipelining
	// must not have forked or diverged any replica.
	height := cluster.Nodes[0].Height()
	if height < 12 {
		t.Fatalf("height %d < 12 — blocks did not fill", height)
	}
	for _, n := range cluster.Nodes[1:] {
		if err := n.WaitHeight(height, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	root := headerChainRoot(t, cluster.Nodes[0], height)
	for _, n := range cluster.Nodes[1:] {
		if got := headerChainRoot(t, n, height); got != root {
			t.Fatalf("node %d header chain %x != node 0 %x", n.ID(), got[:8], root[:8])
		}
	}
}

// commitDependencyChain commits one block in which every transaction reads
// what the one before it wrote: a credit to a fresh account, then blockMax-1
// moves passing that unit down a chain of accounts. Executed against the
// pre-block snapshot every move fails (empty source), so all of them
// succeeding on every replica shows block order won. Returns the block's
// transactions.
func commitDependencyChain(t *testing.T, c *Cluster, blockMax int) []*chain.Tx {
	t.Helper()
	client := newClusterClient(t, c)
	hop := func(i int) []byte { return acct("raw-" + string(rune('a'+i))) }
	credit, _, err := client.NewConfidentialTx(ledgerAddr, "credit", hop(0), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	txs := []*chain.Tx{credit}
	for i := 1; i < blockMax; i++ {
		move, _, err := client.NewConfidentialTx(ledgerAddr, "move", hop(i-1), hop(i))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, move)
	}
	for _, n := range c.Nodes {
		n.ConfidentialEngine().Profile().Reset()
	}
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.ProcessRound(10 * time.Second); err != nil || n != blockMax {
		t.Fatalf("dependency block carried %d txs (err=%v), want %d", n, err, blockMax)
	}
	for _, n := range c.Nodes {
		for i, tx := range txs {
			if !receiptOK(n, tx) {
				t.Fatalf("node %d: dependent tx %d did not succeed in block order", n.ID(), i)
			}
		}
	}
	return txs
}

// executions reports how many confidential transactions n's engine has run
// to completion since its profile was last reset (one receipt seal each).
func executions(n *Node) uint64 {
	return n.ConfidentialEngine().Profile().Snapshot()[core.OpReceiptSeal].Count
}

// TestMixedExecWorkersDeterminism mixes replicas with 1, 2, 4 and 8 OCC
// lanes inside one cluster running pipelined: every replica must commit the
// byte-identical chain and identical plaintext state, because speculation
// reads only the pre-block snapshot and the validation pass serializes in
// block order regardless of lane count. A replica without lanes has nothing
// to speculate with and executes each transaction exactly once.
func TestMixedExecWorkersDeterminism(t *testing.T) {
	cluster, err := NewCluster(ClusterOptions{
		Nodes: 4,
		Node: Config{
			BlockMaxTxs:   8,
			PipelineDepth: 4,
			EngineOpts:    core.AllOptimizations(),
		},
		PerNodeExecWorkers: map[int]int{0: 1, 1: 2, 2: 4, 3: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.DeployEverywhere(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
		t.Fatal(err)
	}
	txs := pipelineLedgerTxs(t, cluster, 11, 80)
	client := newClusterClient(t, cluster)
	stop := cluster.StartDriver(0)
	defer stop()
	for _, tx := range txs {
		if err := cluster.Leader().SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitCommittedEverywhere(t, cluster, txs, 30*time.Second)
	stop()

	// One block of intra-block read-after-write dependencies: the lanes of
	// replicas 1–3 speculate, fail and re-execute; replica 0 (one worker, so
	// no lanes) runs each transaction once.
	chainTxs := commitDependencyChain(t, cluster, 8)
	txs = append(txs, chainTxs...)
	if got := executions(cluster.Nodes[0]); got != uint64(len(chainTxs)) {
		t.Errorf("lane-less replica executed %d times for %d transactions", got, len(chainTxs))
	}
	if got := executions(cluster.Nodes[3]); got <= uint64(len(chainTxs)) {
		t.Errorf("8-lane replica executed %d times: the dependency chain forced no re-execution", got)
	}

	height := cluster.Nodes[0].Height()
	for _, n := range cluster.Nodes[1:] {
		if err := n.WaitHeight(height, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	root := headerChainRoot(t, cluster.Nodes[0], height)
	for _, n := range cluster.Nodes[1:] {
		if got := headerChainRoot(t, n, height); got != root {
			t.Fatalf("node %d (workers differ) header chain %x != node 0 %x", n.ID(), got[:8], root[:8])
		}
	}
	// Receipts and enclave-read balances must agree across every replica,
	// not just the header chains.
	for _, tx := range txs {
		base, err := receiptOf(cluster.Nodes[0], tx)
		if err != nil {
			t.Fatalf("missing baseline receipt: %v", err)
		}
		for _, n := range cluster.Nodes[1:] {
			got, err := receiptOf(n, tx)
			if err != nil || got.Status != base.Status || !bytes.Equal(got.Output, base.Output) {
				t.Fatalf("node %d receipt diverges from node 0", n.ID())
			}
		}
	}
	for _, a := range []string{"acc-a", "acc-b", "acc-c", "acc-d"} {
		read, _, err := client.NewConfidentialTx(ledgerAddr, "read", acct(a))
		if err != nil {
			t.Fatal(err)
		}
		var base []byte
		for i, n := range cluster.Nodes {
			res, err := n.ConfidentialEngine().Execute(read)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = res.Receipt.Output
			} else if !bytes.Equal(res.Receipt.Output, base) {
				t.Fatalf("balance %q differs on node %d: %v vs %v", a, i, res.Receipt.Output, base)
			}
		}
	}

	// A cluster with no lanes anywhere (the default) never speculates: the
	// registry's OCC counters stay where they were.
	laneless := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{BlockMaxTxs: 8}})
	speculated, conflicts := mOCCSpeculated.Value(), mOCCConflicts.Value()
	chainTxs = commitDependencyChain(t, laneless, 8)
	if d := mOCCSpeculated.Value() - speculated; d != 0 {
		t.Errorf("lane-less cluster speculated %d executions", d)
	}
	if d := mOCCConflicts.Value() - conflicts; d != 0 {
		t.Errorf("lane-less cluster discarded %d executions", d)
	}
	for _, n := range laneless.Nodes {
		if got := executions(n); got != uint64(len(chainTxs)) {
			t.Errorf("node %d executed %d times for %d transactions", n.ID(), got, len(chainTxs))
		}
	}
}

// TestBacklogCountsActualInFlightTxs pins the Backlog fix: the in-flight
// term must be the exact number of transactions riding unexecuted
// proposals, not instances × BlockMaxTxs. A partially-full block in a
// partitioned (undeliverable) consensus instance must count its actual
// size; before the fix it counted as a full block.
func TestBacklogCountsActualInFlightTxs(t *testing.T) {
	cluster, err := NewCluster(ClusterOptions{
		Nodes: 4,
		Node: Config{
			BlockMaxTxs:   32,
			PipelineDepth: 4,
			EngineOpts:    core.AllOptimizations(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.DeployEverywhere(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
		t.Fatal(err)
	}
	leader := cluster.Leader()
	txs := pipelineLedgerTxs(t, cluster, 5, 10)

	// Isolate the leader so its proposal cannot deliver, keeping the txs
	// in flight deterministically.
	var rest []p2p.NodeID
	for _, n := range cluster.Nodes {
		if n.ID() != leader.ID() {
			rest = append(rest, n.ID())
		}
	}
	cluster.Net().Partition([][]p2p.NodeID{{leader.ID()}, rest})
	for _, tx := range txs {
		if err := leader.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	leader.PreVerifyPending()
	if got := leader.Backlog(); got != len(txs) {
		t.Fatalf("pre-proposal backlog = %d, want %d (pool only)", got, len(txs))
	}
	if _, err := leader.ProposeBlock(); err != nil {
		t.Fatal(err)
	}
	if got := leader.Backlog(); got != len(txs) {
		t.Fatalf("in-flight backlog = %d, want exactly %d (old estimate: BlockMaxTxs=32)", got, len(txs))
	}
	// A second proposal chains off the predicted parent and cuts an empty
	// block; backlog must not budge.
	if _, err := leader.ProposeBlock(); err != nil {
		t.Fatal(err)
	}
	if got := leader.Backlog(); got != len(txs) {
		t.Fatalf("backlog after empty pipelined proposal = %d, want %d", got, len(txs))
	}

	// Heal; retransmission completes both instances and the backlog drains
	// to zero as the blocks execute.
	cluster.Net().Heal()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if leader.Backlog() == 0 && leader.Height() >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %d (height %d)", leader.Backlog(), leader.Height())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tx := range txs {
		if _, found, _ := leader.StoredReceipt(tx.Hash()); !found {
			h := tx.Hash()
			t.Fatalf("tx lost through the partition: %x", h[:6])
		}
	}
}

// TestDefaultConfigAppliesThroughExecutor pins the single apply path on a
// default Config (depth 1, no lanes): a delivered block is queued and applied
// by the executor, never on the consensus delivery goroutine; the sync layer
// counts a queued block as secured; and Kill with a block still queued
// returns, drops it, and the block re-arrives once the node is restarted.
func TestDefaultConfigAppliesThroughExecutor(t *testing.T) {
	queued := func() int64 {
		return metrics.Default().Snapshot().Gauges["confide_pipeline_exec_queue_blocks"]
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	idle := queued()
	c := newTestCluster(t, ClusterOptions{Nodes: 4, StoreDir: t.TempDir()})
	client := newClusterClient(t, c)
	leader := c.Leader()
	victimIdx := followerOf(c)
	victim := c.Nodes[victimIdx]
	var txs []*chain.Tx
	propose := func() {
		t.Helper()
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("exec"), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
		leader.PreVerifyPending()
		if n, err := leader.ProposeBlock(); err != nil || n != 1 {
			t.Fatalf("leader proposed %d transactions (err=%v), want 1", n, err)
		}
	}

	// Stall the victim's block application: its executor takes the delivered
	// block off the queue and parks on applyMu, which the test holds.
	victim.applyMu.Lock()
	propose()
	waitFor("the block to reach the victim's executor", func() bool { return victim.executor.Depth() == 1 })
	if got := queued(); got <= idle {
		t.Errorf("exec_queue_blocks = %d with a block awaiting execution, idle value %d", got, idle)
	}
	if h := victim.Height(); h != 0 {
		t.Errorf("height %d with one block queued; want 0", h)
	}
	if got := victim.Backlog(); got < 1 {
		t.Errorf("backlog %d does not count the queued block's transaction", got)
	}
	victim.applyMu.Unlock()
	for _, n := range c.Nodes {
		if err := n.WaitHeight(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("the executor queues to empty", func() bool { return queued() == idle })
	if h := victim.Height(); h != 1 {
		t.Errorf("height %d after the queue emptied; want 1", h)
	}

	// Kill with one block executing and one queued behind it. The executor
	// finishes the first, may or may not start the second, and drops what is
	// left; either way Kill returns and the queue accounting is unwound.
	victim.applyMu.Lock()
	propose()
	waitFor("the second block to reach the victim's executor", func() bool { return victim.executor.Depth() == 1 })
	if err := leader.WaitHeight(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	propose()
	waitFor("the third block to queue behind it", func() bool { return victim.executor.Depth() == 2 })
	killed := make(chan struct{})
	go func() {
		victim.Kill()
		close(killed)
	}()
	victim.applyMu.Unlock()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill deadlocked with a block queued on the executor")
	}
	if err := leader.WaitHeight(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor("the dead node's queue accounting to unwind", func() bool { return queued() == idle })

	if err := c.RestartNode(victimIdx, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[victimIdx].WaitHeight(3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if _, found, err := c.Nodes[victimIdx].StoredReceipt(tx.Hash()); err != nil || !found {
			t.Fatalf("restarted node lacks a receipt for a block dropped at Kill (err=%v)", err)
		}
	}
}
