package bench

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"time"

	"confide/internal/chain"
	"confide/internal/confassets"
	"confide/internal/core"
	"confide/internal/node"
	"confide/internal/tee"
	"confide/internal/workload"
)

// ---------------------------------------------------------------------------
// Confidential assets: Pedersen/range-proof microbenchmarks plus end-to-end
// committed-token throughput through a 4-node cluster.
// ---------------------------------------------------------------------------

// ConfAssetsRow is one measurement of the confidential-assets subsystem.
// Speedup is relative to one-at-a-time range verification and only set on
// the batch-verify rows; Bytes is the fixed wire size of the object the
// operation produces, where it has one.
type ConfAssetsRow struct {
	Op        string  `json:"op"`
	Batch     int     `json:"batch,omitempty"`
	Iters     int     `json:"iters"`
	PerOpMs   float64 `json:"per_op_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup,omitempty"`
	Bytes     int     `json:"bytes,omitempty"`
}

// ConfAssetsConfig parameterizes the experiment.
type ConfAssetsConfig struct {
	// Proofs is the range-proof population; it must cover the largest
	// batch size (range proving dominates the experiment's runtime).
	Proofs  int
	Batches []int
	// TokenTxs per cluster measurement cell.
	TokenTxs int
}

// DefaultConfAssets returns laptop-scaled parameters.
func DefaultConfAssets() ConfAssetsConfig {
	return ConfAssetsConfig{Proofs: 64, Batches: []int{4, 16, 64}, TokenTxs: 24}
}

// ConfAssets measures the confassets primitives — commit, deterministic
// blinding derivation, 64-bit range prove/verify (single and batched) — and
// then drives the committed-token contract through a cluster for end-to-end
// issue and transfer throughput.
func ConfAssets(cfg ConfAssetsConfig) ([]ConfAssetsRow, error) {
	if cfg.Proofs == 0 {
		cfg = DefaultConfAssets()
	}
	for _, b := range cfg.Batches {
		if b > cfg.Proofs {
			return nil, fmt.Errorf("bench: batch %d exceeds proof population %d", b, cfg.Proofs)
		}
	}
	var rows []ConfAssetsRow
	timed := func(op string, iters, batch, bytes int, f func()) ConfAssetsRow {
		start := time.Now()
		f()
		per := time.Since(start).Seconds() / float64(iters)
		return ConfAssetsRow{Op: op, Batch: batch, Iters: iters,
			PerOpMs: per * 1e3, OpsPerSec: 1 / per, Bytes: bytes}
	}

	key := []byte("bench-confassets-blinding-key")
	contract := []byte("bench-contract")

	// Deterministic blinding derivation + commit (the engine's hot path).
	const commitIters = 512
	blinds := make([]*big.Int, commitIters)
	rows = append(rows, timed("derive_blinding", commitIters, 0, 0, func() {
		for i := range blinds {
			blinds[i] = confassets.DeriveBlinding(key, contract, []byte("tx"), []byte("bal"), uint64(i))
		}
	}))
	comms := make([]confassets.Commitment, commitIters)
	rows = append(rows, timed("commit", commitIters, 0, confassets.PointSize, func() {
		for i := range comms {
			comms[i] = confassets.Commit(uint64(1000+i), blinds[i])
		}
	}))

	// 64-bit aggregate range proofs: prove, verify singly, verify batched.
	items := make([]confassets.BatchItem, cfg.Proofs)
	rows = append(rows, timed("range_prove", cfg.Proofs, 0, confassets.RangeProofSize, func() {
		for i := range items {
			r := confassets.DeriveBlinding(key, contract, []byte("rp"), []byte("bal"), uint64(i))
			nonce := make([]byte, 8)
			binary.BigEndian.PutUint64(nonce, uint64(i))
			items[i] = confassets.BatchItem{
				C:     confassets.Commit(uint64(3_000_000+i), r),
				Proof: confassets.ProveRange64(uint64(3_000_000+i), r, nonce),
			}
		}
	}))
	single := timed("range_verify", cfg.Proofs, 1, 0, func() {
		for _, it := range items {
			if !confassets.VerifyRange(it.C, it.Proof) {
				panic("bench: valid range proof rejected")
			}
		}
	})
	rows = append(rows, single)
	for _, b := range cfg.Batches {
		reps := cfg.Proofs / b
		row := timed("range_verify_batch", reps*b, b, 0, func() {
			for rep := 0; rep < reps; rep++ {
				if !confassets.BatchVerifyRange(items[rep*b : (rep+1)*b]) {
					panic("bench: valid batch rejected")
				}
			}
		})
		row.Speedup = single.PerOpMs / row.PerOpMs
		rows = append(rows, row)
	}

	tokenRows, err := confTokenThroughput(cfg.TokenTxs)
	if err != nil {
		return nil, err
	}
	return append(rows, tokenRows...), nil
}

func beU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// confTokenThroughput measures end-to-end cluster TPS of the committed
// token: capped issuance into fresh accounts, then transfers between two
// committed balances (two commitments per tx).
func confTokenThroughput(txCount int) ([]ConfAssetsRow, error) {
	if txCount == 0 {
		txCount = DefaultConfAssets().TokenTxs
	}
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			BlockMaxTxs: 32,
			EngineOpts:  core.AllOptimizations(),
		},
		Enclave: tee.Config{InjectDelays: true},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	code, err := workload.CompileCVM(workload.ConfAssetsTokenSrc)
	if err != nil {
		return nil, err
	}
	tokenAddr := chain.AddressFromBytes([]byte("bench-conftoken"))
	if err := cluster.DeployEverywhere(tokenAddr, ownerAddr, core.VMCVM, code, true, 1); err != nil {
		return nil, err
	}
	client, err := core.NewClient(cluster.EnvelopePublicKey())
	if err != nil {
		return nil, err
	}
	leader := cluster.Leader()
	keys := make(map[chain.Hash][]byte) // each sealed transaction's k_tx: its receipt opens with nothing else

	runCell := func(op string, txs []*chain.Tx) (ConfAssetsRow, error) {
		for _, tx := range txs {
			if err := leader.SubmitTx(tx); err != nil {
				return ConfAssetsRow{}, err
			}
		}
		// As in clusterThroughput: pre-verification overlaps ordering in
		// production, so let the leader finish it before the timed region.
		for leader.UnverifiedPoolLen() > 0 {
			leader.PreVerifyPending()
		}
		start := time.Now()
		if _, err := cluster.DrainAll(64, 60*time.Second); err != nil {
			return ConfAssetsRow{}, err
		}
		elapsed := time.Since(start).Seconds()
		for _, tx := range txs {
			rpt, err := leader.Receipt(tx.Hash(), keys[tx.Hash()])
			if err != nil {
				return ConfAssetsRow{}, fmt.Errorf("bench: %s receipt: %w", op, err)
			}
			if rpt.Status != chain.ReceiptOK {
				return ConfAssetsRow{}, fmt.Errorf("bench: %s tx failed: %s", op, rpt.Output)
			}
		}
		return ConfAssetsRow{Op: op, Iters: len(txs),
			PerOpMs: elapsed / float64(len(txs)) * 1e3, OpsPerSec: float64(len(txs)) / elapsed}, nil
	}

	build := func(method string, args func(i int) [][]byte) ([]*chain.Tx, error) {
		txs := make([]*chain.Tx, 0, txCount)
		for i := 0; i < txCount; i++ {
			tx, ktx, err := client.NewConfidentialTx(tokenAddr, method, args(i)...)
			if err != nil {
				return nil, err
			}
			keys[tx.Hash()] = ktx
			txs = append(txs, tx)
		}
		return txs, nil
	}

	// Seed: one uncapped issuance funds the transfer sender.
	alice, bob := []byte("alice\x00\x00\x00"), []byte("bob\x00\x00\x00\x00\x00")
	seed, ktx, err := client.NewConfidentialTx(tokenAddr, "issue", alice, beU64(1<<40), beU64(0))
	if err != nil {
		return nil, err
	}
	keys[seed.Hash()] = ktx
	if _, err := runCell("token_seed", []*chain.Tx{seed}); err != nil {
		return nil, err
	}

	issues, err := build("issue", func(i int) [][]byte {
		return [][]byte{beU64(uint64(0x100 + i)), beU64(7), beU64(0)}
	})
	if err != nil {
		return nil, err
	}
	issueRow, err := runCell("token_issue_tps", issues)
	if err != nil {
		return nil, err
	}

	transfers, err := build("transfer", func(i int) [][]byte {
		return [][]byte{alice, bob, beU64(1)}
	})
	if err != nil {
		return nil, err
	}
	transferRow, err := runCell("token_transfer_tps", transfers)
	if err != nil {
		return nil, err
	}
	return []ConfAssetsRow{issueRow, transferRow}, nil
}
