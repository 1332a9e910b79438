package main

import (
	"fmt"
	"math/rand"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/workload"
)

// The rotation experiment measures what a consensus-ordered key rotation
// costs a running network: ABS-transfer traffic is driven through a 4-node
// cluster before, across, and after a key-epoch rotation. The rotation phase
// keeps pre-rotation clients submitting (their envelopes ride the acceptance
// window) alongside post-rotation clients on the new pk_tx; the acceptance
// criterion is zero failed transactions. The deterministic re-seal sweep that
// migrates the sealed store onto the new epoch is then timed separately,
// since production amortizes it in rate-limited background slices.

type rotationRow struct {
	// Phase labels the traffic window.
	Phase string `json:"phase"`
	// Epoch is the cluster's key epoch when the phase ended.
	Epoch uint64 `json:"epoch"`
	// Txs is the committed transaction count for the phase.
	Txs int `json:"txs"`
	// TPS is phase throughput (commits/second, synchronous rounds).
	TPS float64 `json:"tps"`
	// Failed counts transactions with a non-OK receipt (must be 0).
	Failed int `json:"failed"`
}

type rotationResult struct {
	Rows []rotationRow `json:"rows"`
	// ResealedRecords is how many sealed records the post-rotation sweep
	// migrated onto the new epoch on one node.
	ResealedRecords int `json:"resealed_records"`
	// ResealMs is that sweep's wall-clock time (unbounded budget).
	ResealMs float64 `json:"reseal_ms"`
	// RingAdvances is the registry delta of ring rotations across the run
	// (nodes × rotations when every replica advanced).
	RingAdvances uint64 `json:"ring_advances"`
}

func runRotation(txs int) (any, error) {
	if txs <= 0 {
		txs = 24
	}
	fmt.Println("=== Key rotation: throughput across a consensus-ordered epoch rotation (4 nodes) ===")
	advancesBefore := metrics.Default().Snapshot().CounterSum("confide_keyepoch_rotations_total")

	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			BlockMaxTxs: 8,
			EngineOpts:  core.AllOptimizations(),
			ResealRate:  -1, // sweep measured explicitly below
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	defer cluster.StartDriver(0)()

	addr := chain.AddressFromBytes([]byte("rotation-contract"))
	owner := chain.AddressFromBytes([]byte("rotation-owner"))
	code, err := workload.Compile(workload.ABSTransferFlatSrc, core.VMCVM)
	if err != nil {
		return nil, err
	}
	if err := cluster.DeployEverywhere(addr, owner, core.VMCVM, code, true, 1); err != nil {
		return nil, err
	}
	newEpochClient := func() (*core.Client, error) {
		epoch, pk := cluster.EnvelopeKeyInfo()
		client, err := core.NewClient(pk)
		if err != nil {
			return nil, err
		}
		client.SetEnvelopeKey(epoch, pk)
		return client, nil
	}
	oldClient, err := newEpochClient() // epoch 1
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(11))
	var submitted []*chain.Tx
	var keys [][]byte // submitted[i]'s k_tx: its receipt opens with nothing else
	// drive commits n transactions through client, one at a time into an
	// idle cluster.
	drive := func(client *core.Client, n int) error {
		for i := 0; i < n; i++ {
			method, args := workload.ABSFlatInput(rng)
			tx, ktx, err := client.NewConfidentialTx(addr, method, args...)
			if err != nil {
				return err
			}
			if err := cluster.Submit(tx); err != nil {
				return err
			}
			if err := cluster.WaitIdle(10 * time.Second); err != nil {
				return err
			}
			submitted, keys = append(submitted, tx), append(keys, ktx)
		}
		return nil
	}
	// failures counts non-OK receipts among everything submitted so far,
	// then resets the window.
	failures := func() int {
		failed := 0
		for i, tx := range submitted {
			rpt, err := cluster.Nodes[0].Receipt(tx.Hash(), keys[i])
			if err != nil || rpt.Status != chain.ReceiptOK {
				failed++
			}
		}
		submitted, keys = submitted[:0], keys[:0]
		return failed
	}
	result := &rotationResult{}
	phase := func(label string, fn func() (int, error)) error {
		start := time.Now()
		n, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		elapsed := time.Since(start)
		result.Rows = append(result.Rows, rotationRow{
			Phase:  label,
			Epoch:  cluster.CurrentEpoch(),
			Txs:    n,
			TPS:    float64(n) / elapsed.Seconds(),
			Failed: failures(),
		})
		return nil
	}

	// Phase 1: steady state on the provisioned epoch.
	if err := phase("steady (epoch 1)", func() (int, error) {
		return txs, drive(oldClient, txs)
	}); err != nil {
		return nil, err
	}

	// Phase 2: rotation in flight. The governance transaction orders the
	// rotation two blocks out; traffic keeps flowing from the pre-rotation
	// client the whole way through, joined by a new-epoch client once the
	// rotation activates.
	if err := phase("rotation window (epoch 1→2)", func() (int, error) {
		if _, _, err := cluster.RotateEpoch(2); err != nil {
			return 0, err
		}
		var newClient *core.Client
		for i := 0; i < txs; i++ {
			if newClient == nil && cluster.CurrentEpoch() >= 2 {
				if newClient, err = newEpochClient(); err != nil {
					return i, err
				}
			}
			client := oldClient
			if newClient != nil && i%2 == 1 {
				client = newClient
			}
			if err := drive(client, 1); err != nil {
				return i, err
			}
		}
		if got := cluster.CurrentEpoch(); got != 2 {
			return txs, fmt.Errorf("rotation never activated (epoch %d)", got)
		}
		return txs, nil
	}); err != nil {
		return nil, err
	}

	// The re-seal sweep, timed on one node with an unbounded budget; the
	// other replicas drain untimed so the cluster stays symmetric.
	sweepStart := time.Now()
	status, err := cluster.Nodes[0].ResealNow(0)
	if err != nil {
		return nil, fmt.Errorf("reseal sweep: %w", err)
	}
	result.ResealMs = float64(time.Since(sweepStart).Microseconds()) / 1e3
	result.ResealedRecords = status.Resealed
	for _, n := range cluster.Nodes[1:] {
		if _, err := n.ResealNow(0); err != nil {
			return nil, err
		}
	}

	// Phase 3: steady state on the rotated epoch, drained store.
	postClient, err := newEpochClient()
	if err != nil {
		return nil, err
	}
	if err := phase("steady (epoch 2, drained)", func() (int, error) {
		return txs, drive(postClient, txs)
	}); err != nil {
		return nil, err
	}

	result.RingAdvances = metrics.Default().Snapshot().CounterSum("confide_keyepoch_rotations_total") - advancesBefore
	if result.RingAdvances < uint64(len(cluster.Nodes)) {
		return nil, fmt.Errorf("rotation: only %d ring advances recorded across %d nodes", result.RingAdvances, len(cluster.Nodes))
	}
	for _, r := range result.Rows {
		if r.Failed != 0 {
			return nil, fmt.Errorf("rotation: %d failed transaction(s) in phase %q — window acceptance broken", r.Failed, r.Phase)
		}
	}

	fmt.Printf("%-30s %-7s %-6s %10s %8s\n", "Phase", "Epoch", "Txs", "TPS", "Failed")
	for _, r := range result.Rows {
		fmt.Printf("%-30s %-7d %-6d %10.1f %8d\n", r.Phase, r.Epoch, r.Txs, r.TPS, r.Failed)
	}
	fmt.Printf("re-seal sweep: %d records in %.1f ms (one node, unbounded budget); %d ring advances\n",
		result.ResealedRecords, result.ResealMs, result.RingAdvances)
	return result, nil
}
