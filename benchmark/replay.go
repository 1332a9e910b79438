package main

// Per-layer metrics, source (c): one goroutine pushes the first replayTxs
// submitted transactions through each layer's public functions on a fresh
// cluster with no driver and no gateways, timing every call. These are costs
// in isolation; they omit queueing and contention, which the traced run's
// registry metrics show.

import (
	"crypto/rand"
	"fmt"
	"os"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/crypto"
	"confide/internal/keyepoch"
	"confide/internal/kms"
	"confide/internal/node"
	"confide/internal/p2p"
	"confide/internal/storage"
)

const (
	replayTxs   = 2048
	replayBlock = 64 // BlockMaxTxs default: a full block
	// replayNodeRounds full blocks go through Cluster.ProcessRound; the rest
	// go through node 0's engine by hand.
	replayNodeRounds = 8
)

// timeUS runs fn and returns how long it took in microseconds.
func timeUS(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

func replay(w workload, secrets *kms.Secrets, submitted []*stockTx, tmpRoot string, m map[string]float64) error {
	if len(submitted) > replayTxs {
		submitted = submitted[:replayTxs]
	}
	blocks := len(submitted) / replayBlock
	if blocks < 2 {
		return fmt.Errorf("only %d transactions submitted, need at least %d", len(submitted), 2*replayBlock)
	}
	submitted = submitted[:blocks*replayBlock]

	// chain: wire decoding.
	txs := make([]*chain.Tx, len(submitted))
	var decode []float64
	for i, s := range submitted {
		var err error
		decode = append(decode, timeUS(func() { txs[i], err = chain.DecodeTx(s.wire) }))
		if err != nil {
			return err
		}
	}
	m["chain.decode_tx_us"] = median(decode)

	// chain: block encode, decode and Merkle root, per transaction of a full
	// block.
	var enc, dec, root []float64
	payloads := make([][]byte, blocks)
	for b := 0; b < blocks; b++ {
		batch := txs[b*replayBlock : (b+1)*replayBlock]
		leaves := make([]chain.Hash, len(batch))
		for i, tx := range batch {
			leaves[i] = tx.Hash()
		}
		blk := &chain.Block{Header: chain.Header{Height: uint64(b)}, Txs: batch}
		root = append(root, timeUS(func() { blk.Header.TxRoot = chain.MerkleRoot(leaves) })/replayBlock)
		enc = append(enc, timeUS(func() { payloads[b] = blk.Encode() })/replayBlock)
		var err error
		dec = append(dec, timeUS(func() { _, err = chain.DecodeBlock(payloads[b]) })/replayBlock)
		if err != nil {
			return err
		}
	}
	m["chain.merkle_root_us_per_tx"] = median(root)
	m["chain.block_encode_us_per_tx"] = median(enc)
	m["chain.block_decode_us_per_tx"] = median(dec)

	// crypto: the T-Protocol's per-transaction primitives.
	var open, cached, verify, seal []float64
	for i, tx := range txs {
		payload := tx.Payload
		if w.confidential {
			_, env, err := keyepoch.ParseEnvelope(tx.Payload)
			if err != nil {
				return err
			}
			open = append(open, timeUS(func() { _, payload, err = secrets.Envelope.OpenEnvelope(env) }))
			if err != nil {
				return err
			}
			cached = append(cached, timeUS(func() { _, err = crypto.OpenEnvelopeWithKey(env, submitted[i].ktx) }))
			if err != nil {
				return err
			}
		}
		raw, err := chain.DecodeRawTx(payload)
		if err != nil {
			return err
		}
		verify = append(verify, timeUS(func() { err = raw.VerifySignature() }))
		if err != nil {
			return err
		}
	}
	key, err := crypto.RandomKey()
	if err != nil {
		return err
	}
	kib := make([]byte, 1024)
	if _, err := rand.Read(kib); err != nil {
		return err
	}
	for range txs {
		seal = append(seal, timeUS(func() { _, err = crypto.SealAEAD(key, kib, nil) }))
		if err != nil {
			return err
		}
	}
	m["crypto.envelope_open_us"] = median(open)
	m["crypto.envelope_open_cached_us"] = median(cached)
	m["crypto.sig_verify_us"] = median(verify)
	m["crypto.aead_seal_1k_us"] = median(seal)

	// consensus: one agreement round on a full block's payload, alone on the
	// wire.
	if m["consensus.round_ms_64tx"], err = consensusRounds(payloads); err != nil {
		return err
	}

	// node, core, storage: a fresh cluster with the same secrets, so the
	// sealed stock opens on it.
	storeDir := ""
	if w.durable {
		if storeDir, err = os.MkdirTemp(tmpRoot, "replay-store-"); err != nil {
			return err
		}
		defer os.RemoveAll(storeDir)
	}
	cluster, err := node.NewCluster(sutClusterOptions(storeDir, secrets))
	if err != nil {
		return err
	}
	defer cluster.Close()
	epoch, pkTx := cluster.EnvelopeKeyInfo()
	owner, err := newSealer(epoch, pkTx)
	if err != nil {
		return err
	}
	_, wiring, err := w.deploy(cluster, owner)
	if err != nil {
		return err
	}
	for _, wtx := range wiring {
		tx, err := chain.DecodeTx(wtx.wire)
		if err != nil {
			return err
		}
		if err := cluster.Submit(tx); err != nil {
			return err
		}
	}
	if len(wiring) > 0 {
		if _, err := cluster.ProcessRound(settleTimeout); err != nil {
			return err
		}
	}

	// node: whole rounds — pre-verify, propose, three PBFT phases, execute
	// and commit on all four replicas.
	rounds := min(replayNodeRounds, blocks-1)
	var round []float64
	for b := 0; b < rounds; b++ {
		for _, tx := range txs[b*replayBlock : (b+1)*replayBlock] {
			if err := cluster.Submit(tx); err != nil {
				return err
			}
		}
		var n int
		round = append(round, timeUS(func() { n, err = cluster.ProcessRound(settleTimeout) })/1e3)
		if err != nil {
			return err
		}
		if n != replayBlock {
			return fmt.Errorf("replay round carried %d transactions, want %d", n, replayBlock)
		}
	}
	m["node.round_ms_64tx"] = median(round)

	// core and storage: node 0's engines by hand, block by block, the way
	// the node calls them.
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]
	pre, engine := n0.ConfidentialEngine(), n0.ConfidentialEngine()
	if !w.confidential {
		engine = n0.PublicEngine()
	}
	store := n0.Store()
	pre.Profile().Reset()
	engine.Profile().Reset()
	var preverify, execute, attest, tag, write, get []float64
	executed := 0
	for b := rounds; b < blocks; b++ {
		batch := txs[b*replayBlock : (b+1)*replayBlock]
		height := uint64(b)
		var valid []*chain.Tx
		preverify = append(preverify, timeUS(func() { valid = pre.PreVerifyBatch(batch) })/replayBlock)
		if len(valid) != len(batch) {
			return fmt.Errorf("pre-verification kept %d of %d transactions", len(valid), len(batch))
		}
		var vtag []byte
		attest = append(attest, timeUS(func() { vtag = pre.AttestPreVerified(height, 0, batch) }))
		leaves := make([]chain.Hash, len(batch))
		for i, tx := range batch {
			leaves[i] = tx.Hash()
		}
		txRoot := chain.MerkleRoot(leaves)
		var ok bool
		tag = append(tag, timeUS(func() { ok = n1.ConfidentialEngine().VerifyPreVerifyTag(height, 0, txRoot, vtag) }))
		if !ok {
			return fmt.Errorf("replica 1 rejected replica 0's pre-verification tag")
		}
		if !w.confidential {
			// As the node does for public transactions under a valid tag.
			engine.TrustPreVerified(batch)
		}
		var wb storage.Batch
		var appendUS float64
		hashes := make([]chain.Hash, 0, len(batch))
		for _, tx := range batch {
			var res *core.ExecResult
			var err error
			execute = append(execute, timeUS(func() { res, err = engine.Execute(tx) }))
			if err != nil {
				return err
			}
			if res.Receipt.Status != chain.ReceiptOK {
				return fmt.Errorf("replayed transaction failed: %s", res.Receipt.Output)
			}
			appendUS += timeUS(func() { err = res.AppendWrites(&wb) })
			if err != nil {
				return err
			}
			hashes = append(hashes, tx.Hash())
			executed++
		}
		write = append(write, appendUS+timeUS(func() { err = store.WriteBatch(&wb) }))
		if err != nil {
			return err
		}
		pre.DropPreVerified(hashes)
		engine.DropPreVerified(hashes)
		for _, h := range hashes {
			k := core.ReceiptKey(h)
			var found bool
			get = append(get, timeUS(func() { _, found, err = store.Get(k) }))
			if err != nil || !found {
				return fmt.Errorf("receipt just written reads back missing (%v)", err)
			}
		}
	}
	m["core.preverify_us_per_tx"] = median(preverify)
	m["core.execute_us_per_tx"] = median(execute)
	m["core.attest_us_per_block"] = median(attest)
	m["core.verify_tag_us_per_block"] = median(tag)
	m["storage.write_batch_us_per_block"] = median(write)
	m["storage.get_us"] = median(get)

	// core: the engine's own operation profile, per transaction.
	profile := engine.Profile().Snapshot()
	if !w.confidential {
		// Public transactions pre-verify on the confidential engine.
		for op, e := range pre.Profile().Snapshot() {
			merged := profile[op]
			merged.Count += e.Count
			merged.Duration += e.Duration
			profile[op] = merged
		}
	}
	for name, op := range map[string]string{
		"core.op_tx_decrypt_us":    core.OpTxDecrypt,
		"core.op_tx_verify_us":     core.OpTxVerify,
		"core.op_contract_call_us": core.OpContractCall,
		"core.op_get_storage_us":   core.OpGetStorage,
		"core.op_set_storage_us":   core.OpSetStorage,
		"core.op_state_decrypt_us": core.OpStateDecrypt,
		"core.op_state_encrypt_us": core.OpStateEncrypt,
		"core.op_receipt_seal_us":  core.OpReceiptSeal,
		"core.op_code_load_us":     core.OpCodeLoad,
	} {
		m[name] = ratio(float64(profile[op].Duration.Nanoseconds())/1e3, float64(executed))
	}

	// What every replica pays for one transaction, in isolation: gossip
	// decode, block decode and tx root, envelope open (followers open during
	// execution, the leader during pre-verification), a quarter of a
	// signature check (the leader verifies, the tag spares the followers),
	// execution after pre-verification, and a block's fixed costs shared by
	// its 64 transactions.
	m["ledger.replica_us_per_tx"] = m["chain.decode_tx_us"] + m["chain.block_decode_us_per_tx"] +
		m["chain.merkle_root_us_per_tx"] + m["crypto.envelope_open_us"] + m["crypto.sig_verify_us"]/sutNodes +
		m["core.execute_us_per_tx"] +
		(m["core.attest_us_per_block"]+m["core.verify_tag_us_per_block"]+m["storage.write_batch_us_per_block"])/replayBlock
	return nil
}

// consensusRounds times Replica.Propose of each payload on four replicas over
// the SUT's links with a no-op application, until every replica delivered it.
func consensusRounds(payloads [][]byte) (float64, error) {
	net := p2p.NewNetwork(sutClusterOptions("", nil).Network)
	replicas := make([]*consensus.Replica, sutNodes)
	for i := range replicas {
		ep, err := net.Join(p2p.NodeID(i), 0)
		if err != nil {
			return 0, err
		}
		defer ep.Close()
		replicas[i] = consensus.NewReplicaWithOptions(ep, sutNodes, func(uint64, []byte) {}, sutConsensus)
		defer replicas[i].Close()
	}
	var rounds []float64
	for _, p := range payloads {
		var err error
		rounds = append(rounds, timeUS(func() {
			var seq uint64
			if seq, err = replicas[0].Propose(p); err != nil {
				return
			}
			for _, r := range replicas {
				if err = r.WaitDelivered(seq+1, settleTimeout); err != nil {
					return
				}
			}
		})/1e3)
		if err != nil {
			return 0, err
		}
	}
	return median(rounds), nil
}
