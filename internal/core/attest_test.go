package core

import (
	"testing"

	"confide/internal/chain"
)

// attestStack builds a confidential engine plus a batch of pre-verified
// transactions (3 confidential + 2 public, all through the CS enclave, the
// way the node routes them when a confidential engine is present).
func attestStack(t testing.TB) (*testStack, []*chain.Tx) {
	t.Helper()
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	var txs []*chain.Tx
	for i := 0; i < 3; i++ {
		tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte{byte(i)})
		txs = append(txs, tx)
	}
	for i := 0; i < 2; i++ {
		tx, err := client.NewPublicTx(counterAddr, "set", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	if got := len(s.engine.PreVerifyBatch(txs)); got != len(txs) {
		t.Fatalf("pre-verified %d of %d", got, len(txs))
	}
	return s, txs
}

func txRoot(txs []*chain.Tx) chain.Hash {
	leaves := make([]chain.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Hash()
	}
	return chain.MerkleRoot(leaves)
}

func TestAttestPreVerifiedRoundTrip(t *testing.T) {
	s, txs := attestStack(t)
	tag := s.engine.AttestPreVerified(7, 2, txs)
	if tag == nil {
		t.Fatal("fully pre-verified batch must be attestable")
	}
	if !s.engine.VerifyPreVerifyTag(7, 2, txRoot(txs), tag) {
		t.Fatal("tag must verify against the same (height, proposer, root)")
	}
	// The tag binds height, proposer and root individually.
	if s.engine.VerifyPreVerifyTag(8, 2, txRoot(txs), tag) {
		t.Error("tag must not verify at a different height")
	}
	if s.engine.VerifyPreVerifyTag(7, 3, txRoot(txs), tag) {
		t.Error("tag must not verify for a different proposer")
	}
	if s.engine.VerifyPreVerifyTag(7, 2, txRoot(txs[:4]), tag) {
		t.Error("tag must not verify against a different tx root")
	}
}

// TestAttestRefusesUnverifiedTx is the forged-proposer regression: a host
// asking its enclave to attest a batch containing a transaction the enclave
// never verified must get nothing, for both transaction classes.
func TestAttestRefusesUnverifiedTx(t *testing.T) {
	s, txs := attestStack(t)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	smuggledConf, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("forged"))
	if tag := s.engine.AttestPreVerified(7, 2, append(txs[:len(txs):len(txs)], smuggledConf)); tag != nil {
		t.Error("must refuse to attest an unverified confidential tx")
	}
	smuggledPub, _ := client.NewPublicTx(counterAddr, "set", []byte("forged"))
	if tag := s.engine.AttestPreVerified(7, 2, append(txs[:len(txs):len(txs)], smuggledPub)); tag != nil {
		t.Error("must refuse to attest an unverified public tx")
	}
	// The clean batch still attests afterwards (refusal has no side effect).
	if tag := s.engine.AttestPreVerified(7, 2, txs); tag == nil {
		t.Error("clean batch must remain attestable")
	}
	// Once entries are dropped (e.g. after commit), attestation is refused
	// rather than silently claiming stale verification.
	hashes := make([]chain.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	s.engine.DropPreVerified(hashes)
	if tag := s.engine.AttestPreVerified(7, 2, txs); tag != nil {
		t.Error("must refuse to attest after cache entries are dropped")
	}
}

// TestAttestRejectsAttestationSeededEntries pins the no-transitive-trust
// rule: entries seeded from another proposer's tag (TrustPreVerified) must
// not ground a fresh attestation.
func TestAttestRejectsAttestationSeededEntries(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("x"))
	txs := []*chain.Tx{tx}

	s.engine.TrustPreVerified(txs)
	if s.engine.PreVerifiedCount() != 1 {
		t.Fatal("attestation-seeded entry expected in cache")
	}
	if tag := s.engine.AttestPreVerified(7, 2, txs); tag != nil {
		t.Error("attestation-seeded entries must not ground a new tag")
	}
	// Local verification upgrades the entry and restores attestability.
	if got := len(s.engine.PreVerifyBatch(txs)); got != 1 {
		t.Fatalf("pre-verified %d of 1", got)
	}
	if tag := s.engine.AttestPreVerified(7, 2, txs); tag == nil {
		t.Error("locally verified batch must be attestable")
	}
}

func TestAttestPublicEngineUntagged(t *testing.T) {
	s, txs := attestStack(t)
	if tag := s.public.AttestPreVerified(7, 2, txs); tag != nil {
		t.Error("public engine (no ring) must not produce tags")
	}
	if s.public.VerifyPreVerifyTag(7, 2, txRoot(txs), s.engine.AttestPreVerified(7, 2, txs)) {
		t.Error("public engine (no ring) must not accept tags")
	}
}
