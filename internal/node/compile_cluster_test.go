package node

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"confide/internal/chain"
	"confide/internal/core"
)

// TestMixedCompiledInterpretedCluster is the compiler's consensus-level
// acceptance check: a cluster where half the replicas execute contracts
// through the CVM ahead-of-time compiler and half interpret must commit
// byte-identical chains — identical receipts (including the failure
// pattern), identical balances and identical header roots. This is the
// rollout scenario: operators enable -no-compile on some nodes (or stagger
// an upgrade) without forking state.
func TestMixedCompiledInterpretedCluster(t *testing.T) {
	compiled := core.AllOptimizations()
	interpreted := core.AllOptimizations()
	interpreted.Compile = false
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node:  Config{EngineOpts: compiled, ExecWorkers: 4},
		PerNodeEngineOpts: map[int]core.Options{
			1: interpreted,
			3: interpreted,
		},
	})
	client := newClusterClient(t, c)

	// Conflict-heavy ledger mix, including moves from empty accounts so the
	// failed-transaction path (state discarded, error receipt) is part of
	// the compared surface.
	rng := rand.New(rand.NewSource(909))
	accounts := []string{"acc-a", "acc-b", "acc-c", "acc-d"}
	var txs []*chain.Tx
	for _, a := range accounts[:2] {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct(a), []byte{60})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	for i := 0; i < 30; i++ {
		from := accounts[rng.Intn(len(accounts))]
		to := accounts[rng.Intn(len(accounts))]
		var tx *chain.Tx
		var err error
		if rng.Intn(4) == 0 {
			tx, _, err = client.NewConfidentialTx(ledgerAddr, "credit", acct(from), []byte{byte(1 + rng.Intn(5))})
		} else {
			tx, _, err = client.NewConfidentialTx(ledgerAddr, "move", acct(from), acct(to))
		}
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, c)

	// Receipts byte-identical (status + output) on compiled and
	// interpreted replicas alike.
	sawFailure := false
	for ti, tx := range txs {
		base, err := receiptOf(c.Nodes[0], tx)
		if err != nil {
			t.Fatalf("node 0 missing receipt for tx %d: %v", ti, err)
		}
		if base.Status != chain.ReceiptOK {
			sawFailure = true
		}
		for i := 1; i < len(c.Nodes); i++ {
			rpt, err := receiptOf(c.Nodes[i], tx)
			if err != nil {
				t.Fatalf("node %d missing receipt for tx %d: %v", i, ti, err)
			}
			if rpt.Status != base.Status || !bytes.Equal(rpt.Output, base.Output) {
				t.Fatalf("tx %d: node %d receipt (%d, %x) != node 0 (%d, %x)",
					ti, i, rpt.Status, rpt.Output, base.Status, base.Output)
			}
		}
	}
	if !sawFailure {
		t.Fatal("workload produced no failed transaction; failure path untested")
	}

	// Balances identical when read through every node's engine (plaintext
	// state compares via enclave reads; ciphertexts differ by nonce).
	for _, a := range accounts {
		var want []byte
		for i, n := range c.Nodes {
			read, _, err := client.NewConfidentialTx(ledgerAddr, "read", acct(a))
			if err != nil {
				t.Fatal(err)
			}
			res, err := n.ConfidentialEngine().Execute(read)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Receipt.Output
			} else if !bytes.Equal(res.Receipt.Output, want) {
				t.Fatalf("balance %s: node %d %x != node 0 %x", a, i, res.Receipt.Output, want)
			}
		}
	}

	// Header-chain roots identical: headers commit to the tx sets and
	// deterministic execution, so equal roots certify equal chains.
	height := c.Nodes[0].Height()
	var baseRoot []byte
	for i, n := range c.Nodes {
		hasher := sha256.New()
		for h := uint64(0); h < height; h++ {
			hdr, err := n.HeaderAt(h)
			if err != nil {
				t.Fatalf("node %d missing block %d: %v", i, h, err)
			}
			hasher.Write(hdr)
		}
		root := hasher.Sum(nil)
		if i == 0 {
			baseRoot = root
		} else if !bytes.Equal(root, baseRoot) {
			t.Fatalf("header root divergence: node %d %x != node 0 %x", i, root[:8], baseRoot[:8])
		}
	}
}
