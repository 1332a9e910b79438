package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
)

// TestExecutionDeterministicAcrossConfigurations is the replicated-state-
// machine property the whole platform rests on: the same transaction
// stream must produce identical receipts and identical plaintext state on
// every node of every cluster, regardless of OCC lane count, block size or
// proposal window — depth 1 and depth 8 are the same apply path with a
// different bound. (Ciphertexts differ — GCM nonces are random — so state is
// compared through enclave reads.)
func TestExecutionDeterministicAcrossConfigurations(t *testing.T) {
	type outcome struct {
		statuses []uint8
		outputs  [][]byte
		balances map[string][]byte
	}

	runConfig := func(t *testing.T, workers, blockMax, depth int) outcome {
		t.Helper()
		c, err := NewCluster(ClusterOptions{
			Nodes: 4,
			Node: Config{
				BlockMaxTxs:   blockMax,
				ExecWorkers:   workers,
				PipelineDepth: depth,
				EngineOpts:    core.AllOptimizations(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.DeployEverywhere(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
			t.Fatal(err)
		}
		// One deterministic client identity stream: fresh client per config
		// would change signatures but not outcomes; receipts compare on
		// status+output only.
		client := newClusterClient(t, c)
		rng := rand.New(rand.NewSource(404))
		var txs []*chain.Tx
		accounts := []string{"acc-a", "acc-b", "acc-c"}
		// Seed balances, then a conflict-heavy mix of moves and credits.
		for _, a := range accounts {
			tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct(a), []byte{100})
			txs = append(txs, tx)
		}
		for i := 0; i < 20; i++ {
			from := accounts[rng.Intn(len(accounts))]
			to := accounts[rng.Intn(len(accounts))]
			if rng.Intn(3) == 0 {
				tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct(from), []byte{byte(1 + rng.Intn(5))})
				txs = append(txs, tx)
			} else {
				tx, _, _ := client.NewConfidentialTx(ledgerAddr, "move", acct(from), acct(to))
				txs = append(txs, tx)
			}
		}
		for _, tx := range txs {
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		// The background driver, not ProcessRound: it is what fills the
		// window, so the deeper configurations really have several blocks in
		// flight and queued behind execution.
		stop := c.StartDriver(0)
		waitCommittedEverywhere(t, c, txs, 30*time.Second)
		stop()

		out := outcome{balances: map[string][]byte{}}
		for _, tx := range txs {
			rpt, err := receiptOf(c.Nodes[0], tx)
			if err != nil {
				t.Fatalf("missing receipt for tx: %v", err)
			}
			out.statuses = append(out.statuses, rpt.Status)
			out.outputs = append(out.outputs, rpt.Output)
		}
		for _, a := range accounts {
			read, _, _ := client.NewConfidentialTx(ledgerAddr, "read", acct(a))
			res, err := c.Nodes[2].ConfidentialEngine().Execute(read)
			if err != nil {
				t.Fatal(err)
			}
			out.balances[a] = res.Receipt.Output
		}
		return out
	}

	configs := []struct{ workers, blockMax, depth int }{
		{1, 32, 1}, {4, 32, 1}, {6, 8, 1}, {4, 4, 1}, {1, 32, 8}, {4, 8, 4},
	}
	var baseline outcome
	for i, cfg := range configs {
		name := fmt.Sprintf("p%d_b%d", cfg.workers, cfg.blockMax)
		if cfg.depth > 1 {
			name += fmt.Sprintf("_d%d", cfg.depth)
		}
		t.Run(name, func(t *testing.T) {
			got := runConfig(t, cfg.workers, cfg.blockMax, cfg.depth)
			if i == 0 {
				baseline = got
				return
			}
			// The conflict-induced failure pattern (move from empty) and
			// every balance must match the serial baseline exactly.
			for j := range baseline.statuses {
				if got.statuses[j] != baseline.statuses[j] {
					t.Fatalf("tx %d status %d != baseline %d", j, got.statuses[j], baseline.statuses[j])
				}
			}
			for a, want := range baseline.balances {
				if !bytes.Equal(got.balances[a], want) {
					t.Fatalf("balance %s = %v, baseline %v", a, got.balances[a], want)
				}
			}
		})
	}
}
