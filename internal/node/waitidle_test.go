package node

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/tee"
	"confide/internal/workload"
)

// TestWaitIdleUnderDriver submits a workload to a running driver and waits
// for the cluster to go idle — how confide-node runs its workload beside the
// gateways. It guards a pool-promotion race: a transaction in transit through
// pre-verification while its block commits used to be re-added to the
// verified pool after the commit's sweep, where it sat forever and the
// backlog never reached zero. promoteVerified makes the committed-check and
// the pool insert atomic against applyDecoded. Enclave delay injection and
// store read latency widen the race window.
//
// The test runs at pipeline depth 1 and depth 4 (predicted-parent
// pipelining with the execute-behind-order queue and parallel OCC lanes);
// the guarantees must hold identically in both.
func TestWaitIdleUnderDriver(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			testWaitIdleUnderDriver(t, depth)
		})
	}
}

func testWaitIdleUnderDriver(t *testing.T, depth int) {
	for iter := 0; iter < 3; iter++ {
		cluster, err := NewCluster(ClusterOptions{
			Nodes: 4,
			Node: Config{
				BlockMaxTxs:   32,
				EngineOpts:    core.AllOptimizations(),
				PipelineDepth: depth,
				ExecWorkers:   depth, // widen the OCC lanes along with the window
			},
			Enclave:          tee.Config{InjectDelays: true},
			StoreReadLatency: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := chain.AddressFromBytes([]byte("demo-con!"))
		owner := chain.AddressFromBytes([]byte("demo-own!"))
		code, err := workload.Compile(workload.ABSTransferFlatSrc, core.VMCVM)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.DeployEverywhere(addr, owner, core.VMCVM, code, true, 1); err != nil {
			t.Fatal(err)
		}
		stop := cluster.StartDriver(0)

		epoch, pk := cluster.EnvelopeKeyInfo()
		client, err := core.NewClient(pk)
		if err != nil {
			t.Fatal(err)
		}
		client.SetEnvelopeKey(epoch, pk)
		rng := rand.New(rand.NewSource(int64(iter) + 1))
		var hashes []chain.Hash
		for i := 0; i < 16; i++ {
			method, args := workload.ABSFlatInput(rng)
			tx, _, err := client.NewConfidentialTx(addr, method, args...)
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.Leader().SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, tx.Hash())
		}
		if err := cluster.WaitIdle(time.Minute); err != nil {
			stop()
			cluster.Close()
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, h := range hashes {
			if _, found, _ := cluster.Leader().StoredReceipt(h); !found {
				t.Errorf("iter %d: tx %x has no receipt on an idle cluster", iter, h[:6])
			}
		}
		stop()
		cluster.Close()
	}
}

// TestWaitIdleTimesOutWithoutDriver: with nothing producing blocks, a pooled
// transaction never drains, and WaitIdle says so at its deadline instead of
// returning or hanging.
func TestWaitIdleTimesOutWithoutDriver(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	tx, _, err := newClusterClient(t, c).NewConfidentialTx(ledgerAddr, "credit", acct("idle"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	const timeout = 100 * time.Millisecond
	start := time.Now()
	err = c.WaitIdle(timeout)
	if err == nil {
		t.Fatal("WaitIdle returned nil with a transaction pooled and no driver")
	}
	if waited := time.Since(start); waited < timeout {
		t.Errorf("WaitIdle gave up after %v, before its %v timeout", waited, timeout)
	}
	if !strings.Contains(err.Error(), "no driver") {
		t.Errorf("error %q does not say that no driver is running", err)
	}
	if c.Leader().Height() != 0 {
		t.Errorf("a block was produced without a driver (height %d)", c.Leader().Height())
	}
}

// TestWaitIdleCountsWhatTheLeaderHolds: with gossip dropped, the leader holds
// the only copy of each transaction, and for the length of a pre-verification
// batch or a block cut it sits in neither pool. Backlog counts it there, so
// WaitIdle returns only once every transaction has committed everywhere.
func TestWaitIdleCountsWhatTheLeaderHolds(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Enclave: tee.Config{InjectDelays: true}})
	c.Net().SetTopicDropRate(gossipTopic, 1)
	client := newClusterClient(t, c)
	stop := c.StartDriver(0)
	defer stop()
	for round := 0; round < 5; round++ {
		var txs []*chain.Tx
		for i := 0; i < 8; i++ {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("held"), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
		if err := c.WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes {
			for _, tx := range txs {
				if !receiptOK(n, tx) {
					t.Fatalf("round %d: WaitIdle returned before node %d committed %s", round, n.ID(), tx.Hash())
				}
			}
		}
	}
}
