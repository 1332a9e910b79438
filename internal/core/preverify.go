package core

import (
	"fmt"
	"runtime"
	"sync"

	"confide/internal/chain"
	"confide/internal/pipeline"
	"confide/internal/tee"
)

// preMeta is the metadata cached per transaction by pre-verification (step
// P4 of Figure 7): the recovered one-time key and the signature result.
// Execution consumes the entry (C2), replacing the expensive ECIES
// private-key open with a symmetric one (C3) and skipping signature
// re-verification.
type preMeta struct {
	ktx      []byte
	verified bool
	// attested marks entries seeded from a proposer's block attestation
	// rather than local verification (AdoptAttestation; TrustPreVerified on
	// the engine that runs public transactions). A confidential one always
	// carries its k_tx; a relayed key that fails to open its envelope costs
	// only the shortcut, where a local one is a hard error.
	attested bool
}

// preVerifyCache holds metadata keyed by transaction hash, inside CS
// enclave memory.
type preVerifyCache struct {
	mu      sync.Mutex
	entries map[chain.Hash]preMeta
}

func newPreVerifyCache() *preVerifyCache {
	return &preVerifyCache{entries: make(map[chain.Hash]preMeta)}
}

// preVerifyCacheMax bounds enclave memory spent on metadata; beyond it,
// arbitrary entries are evicted (a miss only costs the full decode path).
const preVerifyCacheMax = 1 << 16

func (c *preVerifyCache) put(h chain.Hash, m preMeta) {
	c.mu.Lock()
	if len(c.entries) >= preVerifyCacheMax {
		for victim := range c.entries {
			delete(c.entries, victim)
			break
		}
	}
	c.entries[h] = m
	c.mu.Unlock()
}

// get returns the entry, keeping it cached: a transaction may execute more
// than once within a block (optimistic-concurrency re-execution), and the
// key must stay available until the block commits.
func (c *preVerifyCache) get(h chain.Hash) (preMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[h]
	return m, ok
}

func (c *preVerifyCache) drop(h chain.Hash) {
	c.mu.Lock()
	delete(c.entries, h)
	c.mu.Unlock()
}

// Len reports cached entries (tests/metrics).
func (c *preVerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// PreVerifyBatch implements the pre-verification phase (P1–P5): a batch of
// transactions is pushed into the CS enclave in one ecall, each is taken
// through the pre-processor's steps (preprocess.go) in parallel, metadata is
// cached, and the valid transactions are returned for the verified pool. On a
// confidential engine, public transactions are verified inside the enclave
// too — only in-enclave checks can later be covered by the block attestation
// (AttestPreVerified). On a public engine the same path runs in the untrusted
// host. Invalid transactions are dropped.
func (e *Engine) PreVerifyBatch(txs []*chain.Tx) []*chain.Tx {
	if len(txs) == 0 {
		return nil
	}
	batchBytes := 0
	for _, tx := range txs {
		batchBytes += len(tx.Payload)
	}
	kept := make([]bool, len(txs))
	// P1: the whole batch enters the enclave in one ecall (confidential
	// engine only; the public engine verifies in the untrusted host). The two
	// expensive operations (private-key decryption, signature verification)
	// parallelize across transactions.
	_ = e.enclave.Ecall(batchBytes, tee.CopyInOut, func() error {
		pipeline.RunLanes(runtime.GOMAXPROCS(0), len(txs), func(i int) {
			meta, err := e.preVerify(txs[i])
			if err != nil {
				return
			}
			if e.preCache != nil {
				e.preCache.put(txs[i].Hash(), meta)
			}
			kept[i] = true
		})
		return nil
	})

	valid := make([]*chain.Tx, 0, len(txs))
	for i, tx := range txs {
		if kept[i] {
			valid = append(valid, tx)
		}
	}
	mPreverified.Add(uint64(len(valid)))
	mPreverifyRejects.Add(uint64(len(txs) - len(valid)))
	return valid
}

// preVerify judges one transaction from its bytes alone — gate, open, check —
// and returns the entry P4 caches for it. It never reads the cache: what a
// peer's attestation seeded there is replaced by this enclave's own result,
// which is the only kind AttestPreVerified accepts.
func (e *Engine) preVerify(tx *chain.Tx) (meta preMeta, err error) {
	var raw *chain.RawTx
	switch tx.Type {
	case chain.TxTypePublic:
		raw, err = chain.DecodeRawTx(tx.Payload)
	case chain.TxTypeConfidential:
		var epoch uint64
		var env []byte
		if epoch, env, err = e.epochGate(tx.Payload); err == nil {
			raw, meta.ktx, _, err = e.openEnvelope(epoch, env)
		}
	default:
		// Governance carries no account signature; it is checked semantically
		// at execution and is outside the attestation's claim.
		err = fmt.Errorf("core: transaction type %d is not pre-verified", tx.Type)
	}
	if err == nil {
		err = e.checkSignature(raw)
	}
	meta.verified = err == nil
	return meta, err
}

// TrustPreVerified seeds the cache with attestation-backed entries for
// transactions whose block attestation opened (AdoptAttestation): the
// proposer's enclave vouched that they passed signature pre-verification, so
// this engine may skip re-running ECDSA on them. The node calls it on the
// engine that runs public transactions; a confidential transaction's entry
// vouches for nothing without the key AdoptAttestation seeds. Entries already
// cached are kept — local pre-verification outranks an attestation. Attested
// entries never ground an attestation in turn (AttestPreVerified rejects
// them), so trust does not chain across proposers.
func (e *Engine) TrustPreVerified(txs []*chain.Tx) {
	if e.preCache == nil {
		return
	}
	for _, tx := range txs {
		h := tx.Hash()
		if _, ok := e.preCache.get(h); ok {
			continue
		}
		e.preCache.put(h, preMeta{verified: true, attested: true})
	}
	mPreverifyAttested.Add(uint64(len(txs)))
}

// PreVerifiedCount reports the number of cached pre-verification entries.
func (e *Engine) PreVerifiedCount() int {
	if e.preCache == nil {
		return 0
	}
	return e.preCache.Len()
}

// DropPreVerified releases cached metadata for committed transactions; the
// node calls it after block commit so one-time keys do not linger in the
// enclave.
func (e *Engine) DropPreVerified(hashes []chain.Hash) {
	if e.preCache == nil {
		return
	}
	for _, h := range hashes {
		e.preCache.drop(h)
	}
}
