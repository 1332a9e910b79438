package core

import (
	"bytes"
	"testing"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/keyepoch"
	"confide/internal/storage"
)

// A public engine has no ring: a confidential transaction with a well-formed
// epoch header is dropped by pre-verification like any other it cannot
// judge, and so is every type that carries no account signature.
func TestPublicEngineRefusesConfidentialPreVerify(t *testing.T) {
	for name, tx := range map[string]*chain.Tx{
		"confidential": {Type: chain.TxTypeConfidential, Payload: append([]byte{0xE7, 0x01}, make([]byte, 200)...)},
		"governance":   {Type: chain.TxTypeGovernance, Payload: keyepoch.Rotation{NewEpoch: 2, ActivationHeight: 9}.Encode()},
		"unknown type": {Type: 9, Payload: []byte{1}},
	} {
		e := NewPublicEngine(storage.NewMemStore(), AllOptimizations())
		rejects := mPreverifyRejects.Value()
		if kept := e.PreVerifyBatch([]*chain.Tx{tx}); len(kept) != 0 {
			t.Errorf("%s: pre-verification kept %d transaction(s), want none", name, len(kept))
		}
		if got := mPreverifyRejects.Value() - rejects; got != 1 {
			t.Errorf("%s: confide_core_preverify_rejects_total +%d, want +1", name, got)
		}
		if e.PreVerifiedCount() != 0 {
			t.Errorf("%s: a dropped transaction left a cache entry", name)
		}
	}
}

// Every signature check and every private-key open is one profile
// observation, whichever class the transaction is and whichever caller ran
// the step; a warm entry spares execution the check.
func TestProfileCountsEveryVerification(t *testing.T) {
	const n = 3
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	var txs []*chain.Tx
	for i := 0; i < n; i++ {
		conf, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte{byte(i)})
		pub, err := client.NewPublicTx(counterAddr, "set", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, conf, pub)
	}
	s.engine.Profile().Reset()
	if got := len(s.engine.PreVerifyBatch(txs)); got != 2*n {
		t.Fatalf("pre-verified %d of %d", got, 2*n)
	}
	snap := s.engine.Profile().Snapshot()
	if got := snap[OpTxVerify].Count; got != 2*n {
		t.Errorf("%s counted %d after pre-verifying %d public + %d confidential, want %d", OpTxVerify, got, n, n, 2*n)
	}
	if got := snap[OpTxDecrypt].Count; got != n {
		t.Errorf("%s counted %d, want %d (one per confidential envelope)", OpTxDecrypt, got, n)
	}
	for _, tx := range txs {
		if _, err := s.engine.Execute(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.engine.Profile().Snapshot()[OpTxVerify].Count; got != 2*n {
		t.Errorf("%s counted %d after warm execution, want it unchanged at %d", OpTxVerify, got, 2*n)
	}
}

// Pre-verification never consults or upgrades what the cache already holds:
// over an entry a peer's attestation seeded — here one whose relayed key is
// not even this envelope's — it runs the full open and check and leaves this
// enclave's own result, and only that grounds an attestation.
func TestPreVerifyReplacesSeededEntries(t *testing.T) {
	p, f, txs := relayPair(t)
	conf := txs[:2]
	own0, _ := p.engine.preCache.get(conf[0].Hash())
	own1, _ := p.engine.preCache.get(conf[1].Hash())
	f.engine.preCache.put(conf[0].Hash(), preMeta{ktx: own1.ktx, verified: true, attested: true}) // a relay that lied
	f.engine.TrustPreVerified(conf[1:])                                                           // a vouched signature, no key
	if att := f.engine.AttestPreVerified(8, 3, conf); att != nil {
		t.Fatal("seeded entries grounded an attestation")
	}
	f.engine.Profile().Reset()
	if got := len(f.engine.PreVerifyBatch(conf)); got != len(conf) {
		t.Fatalf("pre-verified %d of %d", got, len(conf))
	}
	for i, want := range [][]byte{own0.ktx, own1.ktx} {
		meta, _ := f.engine.preCache.get(conf[i].Hash())
		if !meta.verified || meta.attested || !bytes.Equal(meta.ktx, want) {
			t.Errorf("entry %d after pre-verification: verified=%v attested=%v own k_tx=%v, want true false true",
				i, meta.verified, meta.attested, bytes.Equal(meta.ktx, want))
		}
	}
	snap := f.engine.Profile().Snapshot()
	if snap[OpTxVerify].Count != 2 || snap[OpTxDecrypt].Count != 2 {
		t.Errorf("pre-verification over seeded entries ran %d checks and %d opens, want 2 and 2",
			snap[OpTxVerify].Count, snap[OpTxDecrypt].Count)
	}
	if att := f.engine.AttestPreVerified(8, 3, conf); att == nil {
		t.Error("locally verified entries must ground an attestation")
	}
}

// A relayed key that does not open its envelope vouches for nothing: the
// entry's signature claim goes with it, so a transaction whose signature is
// bad is refused by the full open's own check. Nor does an attested entry
// without a key: an attestation that opened always seeds one, so the full
// open always checks the signature.
func TestLyingRelayCannotVouchForBadSignature(t *testing.T) {
	p, f, txs := relayPair(t)
	other, _ := p.engine.preCache.get(txs[0].Hash())
	client, _ := NewClient(f.engine.EnvelopePublicKey())
	forged := forgedConfidentialTx(t, client, f.engine)

	f.engine.preCache.put(forged.Hash(), preMeta{ktx: other.ktx, verified: true, attested: true})
	if _, err := f.engine.Execute(forged); err == nil {
		t.Error("a bad signature executed behind a relayed key that failed to open")
	}
	f.engine.preCache.put(forged.Hash(), preMeta{verified: true, attested: true})
	if _, err := f.engine.Execute(forged); err == nil {
		t.Error("a bad signature executed behind a keyless attested entry")
	}
}

// forgedConfidentialTx seals, to e's current epoch, a transaction whose
// signature has one byte flipped.
func forgedConfidentialTx(t testing.TB, client *Client, e *Engine) *chain.Tx {
	t.Helper()
	raw, err := client.signedRaw(counterAddr, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw.Signature[4] ^= 0xff
	return sealRawForTest(t, e, raw)
}

func sealRawForTest(t testing.TB, e *Engine, raw *chain.RawTx) *chain.Tx {
	t.Helper()
	epoch, pk := e.EnvelopeKeyInfo()
	env, err := sealForTest(pk, make([]byte, crypto.SymKeySize), raw.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return &chain.Tx{Type: chain.TxTypeConfidential, Payload: keyepoch.WrapEnvelope(epoch, env)}
}

// Receipt access is not a consensus path: it opens an envelope sealed to any
// epoch the ring still retains, including one the acceptance window has
// already closed on for execution.
func TestAccessReachesRetainedEpochOutsideWindow(t *testing.T) {
	s, owner, tx := accessFixture(t) // commits an epoch-1 confidential tx
	auditor, _ := NewClient(nil)
	auditorKey, err := crypto.GenerateEnvelopeKey()
	if err != nil {
		t.Fatal(err)
	}
	grantTo(t, s, owner, auditor.Address())
	for i := 0; i < 2; i++ { // epoch 3, window 1: epoch 1 is retained and stale
		if _, err := s.engine.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.engine.Execute(tx); err != keyepoch.ErrStaleEpoch {
		t.Fatalf("executing the epoch-1 envelope at epoch 3: %v, want %v", err, keyepoch.ErrStaleEpoch)
	}
	if kept := s.engine.PreVerifyBatch([]*chain.Tx{tx}); len(kept) != 0 {
		t.Fatal("pre-verification kept a stale envelope")
	}
	grant, err := s.engine.HandleAccessRequest(AccessRequest{
		OrigTx:       tx,
		Requester:    auditor.Address(),
		RequesterPub: auditorKey.Public(),
		IncludeRawTx: true,
	})
	if err != nil {
		t.Fatalf("access to a retained epoch outside the window: %v", err)
	}
	if _, err := OpenGrantedReceipt(auditorKey, grant.SealedReceipt); err != nil {
		t.Error(err)
	}
	raw, err := OpenGrantedRawTx(auditorKey, grant.SealedRawTx)
	if err != nil {
		t.Fatal(err)
	}
	if raw.From != owner.Address() {
		t.Errorf("granted raw transaction is from %s, want the owner %s", raw.From, owner.Address())
	}
}

// FuzzPreVerifyAgreesWithExecute is the differential guard on the two callers
// of the gate, open and check steps: for any wire transaction, on either kind
// of engine, pre-verification keeps it exactly when execution on a cold
// engine (no cache entry, so nothing is skipped) gets past its open stage —
// past it, a failure is a failed receipt, not an error — and neither panics.
func FuzzPreVerifyAgreesWithExecute(f *testing.F) {
	opts := AllOptimizations() // window 1
	warm, cold := newStack(f, opts), newStack(f, opts)
	old, _ := NewClient(warm.engine.EnvelopePublicKey()) // seals to epoch 1
	for _, s := range []*testStack{warm, cold} {
		deployCounter(f, s.engine, counterAddr, VMCVM, true)
		if err := s.engine.AdvanceEpochTo(3); err != nil {
			f.Fatal(err)
		}
	}
	epoch, pk := warm.engine.EnvelopeKeyInfo()
	client, _ := NewClient(pk)
	client.SetEnvelopeKey(epoch, pk)

	goodPub, err := client.NewPublicTx(counterAddr, "set", []byte("p"))
	if err != nil {
		f.Fatal(err)
	}
	goodConf, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("c"))
	stale, _, _ := old.NewConfidentialTx(counterAddr, "set", []byte("s"))
	_, env, _ := keyepoch.ParseEnvelope(goodConf.Payload)
	flippedSig, err := client.signedRaw(counterAddr, "get", nil)
	if err != nil {
		f.Fatal(err)
	}
	flippedSig.Signature[4] ^= 0xff
	wrongSender, err := client.signedRaw(counterAddr, "get", nil)
	if err != nil {
		f.Fatal(err)
	}
	wrongSender.From[0] ^= 0xff // SenderPub no longer hashes to From

	f.Add(chain.TxTypePublic, goodPub.Payload)
	f.Add(chain.TxTypeConfidential, goodConf.Payload)
	f.Add(chain.TxTypeConfidential, env)                                        // wrong magic
	f.Add(chain.TxTypeConfidential, append([]byte{0xE7, 0x00}, env...))         // epoch 0
	f.Add(chain.TxTypeConfidential, stale.Payload)                              // one past the window
	f.Add(chain.TxTypeConfidential, keyepoch.WrapEnvelope(epoch+1, env))        // future epoch
	f.Add(chain.TxTypeConfidential, goodConf.Payload[:len(goodConf.Payload)/2]) // truncated
	f.Add(chain.TxTypeConfidential, []byte{0xE7, 0x03})
	f.Add(chain.TxTypePublic, flippedSig.Encode())
	f.Add(chain.TxTypeConfidential, sealRawForTest(f, warm.engine, flippedSig).Payload)
	f.Add(chain.TxTypePublic, wrongSender.Encode())
	f.Add(chain.TxTypeConfidential, sealRawForTest(f, warm.engine, wrongSender).Payload)
	f.Add(chain.TxTypeGovernance, keyepoch.Rotation{NewEpoch: 4, ActivationHeight: 9}.Encode())
	f.Add(uint8(7), goodPub.Payload)

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		for _, pair := range []struct {
			kind       string
			warm, cold *Engine
		}{
			{"confidential", warm.engine, cold.engine},
			{"public", warm.public, cold.public},
		} {
			tx := &chain.Tx{Type: typ, Payload: payload}
			kept := len(pair.warm.PreVerifyBatch([]*chain.Tx{tx})) == 1
			pair.warm.DropPreVerified([]chain.Hash{tx.Hash()})
			_, err := pair.cold.Execute(tx)
			if kept != (err == nil) {
				t.Errorf("%s engine, type %d: pre-verification kept=%v, cold execution: %v", pair.kind, typ, kept, err)
			}
		}
	})
}
