package core

import (
	"runtime"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/keyepoch"
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
	// attested marks entries seeded from a proposer's block-level
	// attestation rather than local verification: the signature result comes
	// from its tag (TrustPreVerified) and k_tx, when present, from its key
	// relay (AdoptKeyRelay). A relayed key that fails to open its envelope
	// costs only the shortcut, where a local one is a hard error.
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
// transactions is pushed into the CS enclave in one ecall, each envelope is
// opened and its signature checked in parallel, metadata is cached, and the
// valid transactions are returned for the verified pool. On a confidential
// engine, public transactions are verified inside the enclave too — only
// in-enclave checks can later be covered by the block attestation tag
// (AttestBlock). On a public engine the same path runs in the
// untrusted host. Invalid transactions are dropped.
func (e *Engine) PreVerifyBatch(txs []*chain.Tx) []*chain.Tx {
	if len(txs) == 0 {
		return nil
	}
	type outcome struct {
		tx *chain.Tx
		ok bool
	}
	results := make([]outcome, len(txs))

	batchBytes := 0
	for _, tx := range txs {
		batchBytes += len(tx.Payload)
	}

	verifyOne := func(i int) {
		tx := txs[i]
		switch tx.Type {
		case chain.TxTypePublic:
			raw, err := chain.DecodeRawTx(tx.Payload)
			if err != nil {
				return
			}
			if err := raw.VerifySignature(); err != nil {
				return
			}
			if e.preCache != nil {
				e.preCache.put(tx.Hash(), preMeta{verified: true})
			}
			results[i] = outcome{tx: tx, ok: true}

		case chain.TxTypeConfidential:
			// The epoch tag is public bytes: stale envelopes are rejected
			// here, before spending a private-key operation on them.
			epoch, env, err := keyepoch.ParseEnvelope(tx.Payload)
			if err != nil {
				return
			}
			if !e.ring.Accepts(epoch) {
				keyepoch.RecordStaleRejection()
				return
			}
			sk, err := e.ring.Envelope(epoch)
			if err != nil {
				return
			}
			start := time.Now()
			ktx, payload, err := sk.OpenEnvelope(env)
			e.profile.Record(OpTxDecrypt, time.Since(start))
			if err != nil {
				return
			}
			raw, err := chain.DecodeRawTx(payload)
			if err != nil {
				return
			}
			start = time.Now()
			sigErr := raw.VerifySignature()
			e.profile.Record(OpTxVerify, time.Since(start))
			if sigErr != nil {
				return
			}
			if e.preCache != nil {
				e.preCache.put(tx.Hash(), preMeta{ktx: ktx, verified: true})
			}
			results[i] = outcome{tx: tx, ok: true}
		}
	}

	run := func() error {
		// The two expensive operations (private-key decryption, signature
		// verification) parallelize across transactions.
		workers := runtime.GOMAXPROCS(0)
		if workers > len(txs) {
			workers = len(txs)
		}
		var wg sync.WaitGroup
		next := make(chan int, len(txs))
		for i := range txs {
			next <- i
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					verifyOne(i)
				}
			}()
		}
		wg.Wait()
		return nil
	}

	// P1: the whole batch enters the enclave in one ecall (confidential
	// engine only; the public engine verifies in the untrusted host).
	_ = e.enclave.Ecall(batchBytes, tee.CopyInOut, run)

	valid := make([]*chain.Tx, 0, len(txs))
	for _, r := range results {
		if r.ok {
			valid = append(valid, r.tx)
		}
	}
	mPreverified.Add(uint64(len(valid)))
	mPreverifyRejects.Add(uint64(len(txs) - len(valid)))
	return valid
}

// TrustPreVerified seeds the cache with attestation-backed entries: the
// proposer's enclave vouched (via the block's MAC tag, which it only mints
// over transactions its own pre-verification cache verified) that these
// transactions passed signature pre-verification, so this replica may skip
// re-running ECDSA on them. Entries already cached are kept — local
// pre-verification's outranks an attestation, and AdoptKeyRelay's holds the
// relayed k_tx. Attested entries never ground a new attestation in turn
// (AttestBlock rejects them), so trust does not chain across proposers.
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
