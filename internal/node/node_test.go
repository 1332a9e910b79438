package node

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/p2p"
)

// ledgerSrc is a tiny account ledger used for node tests: per-account
// balances with transfers, so transactions can be made to conflict (same
// account) or not (disjoint accounts).
//
//	credit <acct(8)> <amount-byte>   adds to balance
//	move   <from(8)> <to(8)>         moves 1 unit
//	read   <acct(8)>                 outputs the balance byte
const ledgerSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}
fn arg(buf, idx) -> int {
	// Returns pointer to arg #idx's u32 length header.
	let mlen = u16at(buf);
	let p = buf + 2 + mlen + 2;
	let i = 0;
	while i < idx {
		p = p + 4 + u32at(p);
		i = i + 1;
	}
	return p;
}
fn balance(acct) -> int {
	let tmp = alloc(8);
	let n = storage_get(acct, 8, tmp, 8);
	if n < 1 { return 0; }
	return load8(tmp);
}
fn setbalance(acct, v) {
	let tmp = alloc(8);
	store8(tmp, v);
	storage_set(acct, 8, tmp, 1);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	if c == 99 { // 'c'redit
		let acct = arg(buf, 0) + 4;
		let amt = load8(arg(buf, 1) + 4);
		setbalance(acct, balance(acct) + amt);
	}
	if c == 109 { // 'm'ove
		let from = arg(buf, 0) + 4;
		let to = arg(buf, 1) + 4;
		let fb = balance(from);
		if fb < 1 { fail(); }
		setbalance(from, fb - 1);
		setbalance(to, balance(to) + 1);
	}
	if c == 114 { // 'r'ead
		let racct = arg(buf, 0) + 4;
		let out = alloc(8);
		store8(out, balance(racct));
		output(out, 1);
	}
}
`

var ledgerAddr = chain.AddressFromBytes([]byte("ledger"))

func ledgerModule(t testing.TB) []byte {
	t.Helper()
	mod, err := ccl.CompileCVM(ledgerSrc)
	if err != nil {
		t.Fatal(err)
	}
	return mod.Encode()
}

func acct(name string) []byte {
	b := make([]byte, 8)
	copy(b, name)
	return b
}

// drain runs the proposer loops until the cluster is idle and stops them
// again: everything pooled before the call commits, a block's worth or less
// in one block, and the pools stay still afterwards.
func drain(t testing.TB, c *Cluster) {
	t.Helper()
	stop := c.StartDriver(0)
	defer stop()
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func newTestCluster(t testing.TB, opts ClusterOptions) *Cluster {
	t.Helper()
	if opts.Node.EngineOpts == (core.Options{}) {
		opts.Node.EngineOpts = core.AllOptimizations()
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.DeployEverywhere(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// testClient seals like core.Client and keeps every k_tx it derives, as a
// transaction's owner does: a node holds a confidential receipt only the way
// the engine sealed it, so the tests read one back with the key (receiptOf).
type testClient struct{ *core.Client }

var testKeys sync.Map // chain.Hash → k_tx

func (c testClient) NewConfidentialTx(contract chain.Address, method string, args ...[]byte) (*chain.Tx, []byte, error) {
	tx, ktx, err := c.Client.NewConfidentialTx(contract, method, args...)
	if err == nil {
		testKeys.Store(tx.Hash(), ktx)
	}
	return tx, ktx, err
}

// receiptOf reads tx's receipt from n's store: opened with the k_tx a
// testClient kept for it, decoded in the clear when none did (public and
// governance transactions).
func receiptOf(n *Node, tx *chain.Tx) (*chain.Receipt, error) {
	ktx, _ := testKeys.Load(tx.Hash())
	key, _ := ktx.([]byte)
	return n.Receipt(tx.Hash(), key)
}

// receiptOK reports whether tx committed on n with status OK.
func receiptOK(n *Node, tx *chain.Tx) bool {
	rpt, err := receiptOf(n, tx)
	return err == nil && rpt.Status == chain.ReceiptOK
}

func newClusterClient(t testing.TB, c *Cluster) testClient {
	t.Helper()
	epoch, pk := c.EnvelopeKeyInfo()
	client, err := core.NewClient(pk)
	if err != nil {
		t.Fatal(err)
	}
	client.SetEnvelopeKey(epoch, pk)
	return testClient{client}
}

func TestClusterEndToEndConfidential(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)

	tx, ktx, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("alice"), []byte{50})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	// Give gossip a beat, then drive one round.
	time.Sleep(5 * time.Millisecond)
	n, err := c.ProcessRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("block had %d txs, want 1", n)
	}

	// Every node committed the same receipt and can serve the sealed form.
	hash := tx.Hash()
	for _, node := range c.Nodes {
		rpt, err := node.Receipt(hash, ktx)
		if err != nil {
			t.Fatalf("node %d: receipt: %v", node.ID(), err)
		}
		if rpt.Status != chain.ReceiptOK {
			t.Fatalf("node %d: status %d (%s)", node.ID(), rpt.Status, rpt.Output)
		}
		if rpt.TxHash != hash {
			t.Error("receipt hash mismatch")
		}
		// Without the key the node has nothing to show but the sealed bytes.
		if _, err := node.Receipt(hash, nil); err == nil {
			t.Errorf("node %d decoded a confidential receipt without k_tx", node.ID())
		}
	}

	// Balance readable via a follow-up tx.
	readTx, _, _ := client.NewConfidentialTx(ledgerAddr, "read", acct("alice"))
	c.Submit(readTx)
	time.Sleep(5 * time.Millisecond)
	if _, err := c.ProcessRound(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rpt, err := receiptOf(c.Nodes[2], readTx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Output) != 1 || rpt.Output[0] != 50 {
		t.Errorf("balance = %v, want [50]", rpt.Output)
	}
}

func TestClusterStateIdenticalAcrossNodes(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	for i := 0; i < 8; i++ {
		tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct(fmt.Sprintf("a%d", i%3)), []byte{byte(i + 1)})
		c.Submit(tx)
	}
	drain(t, c)
	// Compare committed state across nodes key by key (ciphertexts differ
	// because GCM nonces are random, so compare through a read tx instead).
	for _, a := range []string{"a0", "a1", "a2"} {
		var want []byte
		for i, node := range c.Nodes {
			readTx, _, _ := client.NewConfidentialTx(ledgerAddr, "read", acct(a))
			res, err := node.ConfidentialEngine().Execute(readTx)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Receipt.Output
			} else if !bytes.Equal(res.Receipt.Output, want) {
				t.Errorf("node %d diverges on %s: %v vs %v", node.ID(), a, res.Receipt.Output, want)
			}
		}
	}
}

func TestConflictingTxsSerializeCorrectly(t *testing.T) {
	// All transfers touch the same two accounts: OCC must re-execute and
	// still produce the sequential result, at any parallelism.
	for _, ways := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ExecWorkers: ways, EngineOpts: core.AllOptimizations()}})
			client := newClusterClient(t, c)

			seed, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("src"), []byte{10})
			c.Submit(seed)
			time.Sleep(5 * time.Millisecond)
			if _, err := c.ProcessRound(5 * time.Second); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 6; i++ {
				tx, _, _ := client.NewConfidentialTx(ledgerAddr, "move", acct("src"), acct("dst"))
				c.Submit(tx)
			}
			drain(t, c)

			readSrc, _, _ := client.NewConfidentialTx(ledgerAddr, "read", acct("src"))
			res, err := c.Nodes[0].ConfidentialEngine().Execute(readSrc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Receipt.Output[0] != 4 { // 10 - 6
				t.Errorf("src balance = %d, want 4", res.Receipt.Output[0])
			}
			readDst, _, _ := client.NewConfidentialTx(ledgerAddr, "read", acct("dst"))
			res2, _ := c.Nodes[0].ConfidentialEngine().Execute(readDst)
			if res2.Receipt.Output[0] != 6 {
				t.Errorf("dst balance = %d, want 6", res2.Receipt.Output[0])
			}
		})
	}
}

func TestMixedPublicAndConfidentialBlock(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	pubAddr := chain.AddressFromBytes([]byte("pub-ledger"))
	if err := c.DeployEverywhere(pubAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), false, 1); err != nil {
		t.Fatal(err)
	}
	confClient := newClusterClient(t, c)
	pubClient, _ := core.NewClient(nil)

	ctx, _, _ := confClient.NewConfidentialTx(ledgerAddr, "credit", acct("c"), []byte{5})
	ptx, _ := pubClient.NewPublicTx(pubAddr, "credit", acct("p"), []byte{7})
	c.Submit(ctx)
	c.Submit(ptx)
	drain(t, c)
	if !receiptOK(c.Nodes[1], ctx) || !receiptOK(c.Nodes[1], ptx) {
		t.Fatal("mixed block execution failed")
	}
	// The public receipt is stored in plaintext, the confidential one is
	// not decodable without k_tx.
	pubStored, _, _ := c.Nodes[1].StoredReceipt(ptx.Hash())
	if _, err := chain.DecodeReceipt(pubStored); err != nil {
		t.Error("public receipt should be plaintext")
	}
	confStored, _, _ := c.Nodes[1].StoredReceipt(ctx.Hash())
	if _, err := chain.DecodeReceipt(confStored); err == nil {
		t.Error("confidential receipt must not decode without k_tx")
	}
}

func TestInvalidTxFilteredByPreVerification(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	good, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("x"), []byte{1})
	bad, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("y"), []byte{1})
	bad.Payload[20] ^= 0xff
	c.Submit(good)
	c.Submit(bad)
	time.Sleep(10 * time.Millisecond)
	n, err := c.ProcessRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("block contains %d txs, want 1 (bad tx filtered)", n)
	}
}

func TestEmptyBlocks(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	if _, err := c.ProcessRound(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.Height() != 1 {
			t.Errorf("node %d height = %d, want 1", n.ID(), n.Height())
		}
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	for _, n := range c.Nodes {
		if !n.IsLeader() {
			if _, err := n.ProposeBlock(); err != ErrNotLeader {
				t.Errorf("node %d: err = %v, want ErrNotLeader", n.ID(), err)
			}
		}
	}
}

func TestClusterSurvivesFCrashes(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	c.Nodes[3].Endpoint().Crash()
	tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("z"), []byte{9})
	c.Submit(tx)
	time.Sleep(10 * time.Millisecond)
	for _, n := range c.Nodes[:3] {
		n.PreVerifyPending()
	}
	if _, err := c.Leader().ProposeBlock(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes[:3] {
		if err := n.WaitHeight(1, 5*time.Second); err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
	}
}

func TestClusterWithNetworkLatencyAndZones(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Zones: []int{0, 0, 1, 1},
		Network: p2p.Config{
			IntraZone: p2p.LinkProfile{Latency: 500 * time.Microsecond},
			CrossZone: p2p.LinkProfile{Latency: 3 * time.Millisecond},
		},
	})
	client := newClusterClient(t, c)
	tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("lat"), []byte{1})
	c.Submit(tx)
	time.Sleep(15 * time.Millisecond)
	start := time.Now()
	if _, err := c.ProcessRound(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("cross-zone consensus finished in %v; latency model bypassed?", elapsed)
	}
}

func TestCentralKMSCluster(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, CentralKMS: true})
	client := newClusterClient(t, c)
	tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("k"), []byte{3})
	c.Submit(tx)
	time.Sleep(5 * time.Millisecond)
	if _, err := c.ProcessRound(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !receiptOK(c.Nodes[0], tx) {
		t.Fatal("centralized-KMS cluster failed to execute")
	}
}

// TestNodeStats: one exact block carrying one transaction shows in the
// registry as one transaction and one block committed per node, with the
// block's execution time observed.
func TestNodeStats(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("s"), []byte{2})
	before := metrics.Default().Snapshot()
	c.Submit(tx)
	time.Sleep(5 * time.Millisecond)
	if n, err := c.ProcessRound(5 * time.Second); err != nil || n != 1 {
		t.Fatalf("round: %d txs, %v", n, err)
	}
	after := metrics.Default().Snapshot()
	// The registry sums the nodes; every node at height 1 makes the sums one
	// block and one transaction each.
	for _, n := range c.Nodes {
		if n.Height() != 1 {
			t.Errorf("node %d at height %d, want 1", n.ID(), n.Height())
		}
	}
	nodes := uint64(len(c.Nodes))
	delta := func(counter string) uint64 { return after.Counters[counter] - before.Counters[counter] }
	if txs, blocks := delta("confide_node_txs_committed_total"), delta("confide_node_blocks_committed_total"); txs != nodes || blocks != nodes {
		t.Errorf("committed %d txs in %d blocks across %d nodes, want one of each per node", txs, blocks, nodes)
	}
	exec := after.Histograms["confide_node_block_execute_seconds"]
	execBefore := before.Histograms["confide_node_block_execute_seconds"]
	if n := exec.Count - execBefore.Count; n != nodes {
		t.Errorf("%d block executions observed, want %d", n, nodes)
	}
	if exec.Sum-execBefore.Sum <= 0 {
		t.Error("exec time not recorded")
	}
}
