package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"confide/internal/chain"
	"confide/internal/crypto"
)

// relayPair is a proposer and a follower enclave provisioned with the same
// ring secrets (newStack shares them), the contract deployed on both, and a
// batch the proposer alone pre-verified: 3 confidential + 2 public.
func relayPair(t testing.TB) (proposer, follower *testStack, txs []*chain.Tx) {
	t.Helper()
	proposer, txs = attestStack(t)
	follower = newStack(t, AllOptimizations())
	deployCounter(t, follower.engine, counterAddr, VMCVM, true)
	return proposer, follower, txs
}

func hashesOf(txs []*chain.Tx) []chain.Hash {
	hashes := make([]chain.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	return hashes
}

// executeAll runs the batch's confidential transactions on e and returns
// their plaintext receipts, failing the test on any execution error.
func executeAll(t testing.TB, e *Engine, txs []*chain.Tx) [][]byte {
	t.Helper()
	var receipts [][]byte
	for _, tx := range txs {
		if tx.Type != chain.TxTypeConfidential {
			continue
		}
		res, err := e.Execute(tx)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		receipts = append(receipts, res.Receipt.Encode())
	}
	return receipts
}

// opens reads the three envelope-open counters.
func opens() (ecdh, local, relayed uint64) {
	return mOpenECDH.Value(), mOpenLocal.Value(), mOpenRelayed.Value()
}

func TestKeyRelayRoundTrip(t *testing.T) {
	p, f, txs := relayPair(t)
	tag, relay := p.engine.AttestBlock(7, 2, txs)
	if tag == nil || relay == nil {
		t.Fatal("fully pre-verified batch must yield a tag and a relay")
	}
	// 8 B epoch + nonce + one 32 B key per confidential tx + GCM tag.
	if want := 8 + crypto.AEADOverhead + 3*crypto.SymKeySize; len(relay) != want {
		t.Fatalf("relay is %d B, want %d", len(relay), want)
	}
	root := txRoot(txs)
	if !f.engine.VerifyPreVerifyTag(7, 2, root, tag) {
		t.Fatal("follower must accept the proposer's tag")
	}
	if !f.engine.AdoptKeyRelay(7, 2, root, txs, relay) {
		t.Fatal("follower must adopt the proposer's relay")
	}
	if got := f.engine.PreVerifiedCount(); got != 3 {
		t.Fatalf("relay seeded %d entries, want 3 (confidential only)", got)
	}

	want := executeAll(t, p.engine, txs) // the proposer's own keys
	ecdh0, _, relayed0 := opens()
	got := executeAll(t, f.engine, txs)
	ecdh1, _, relayed1 := opens()
	if relayed1-relayed0 != 3 || ecdh1 != ecdh0 {
		t.Errorf("follower opens: relayed +%d ecdh +%d, want +3 +0", relayed1-relayed0, ecdh1-ecdh0)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("receipt %d differs between proposer and relay-seeded follower", i)
		}
	}

	// The relay grants no lifetime beyond the block: entries leave with the
	// commit sweep like any other.
	f.engine.DropPreVerified(hashesOf(txs))
	if got := f.engine.PreVerifiedCount(); got != 0 {
		t.Errorf("%d relay-seeded entries survive DropPreVerified", got)
	}
}

// A block without confidential transactions carries a tag and no relay.
func TestKeyRelayOnlyForConfidentialTxs(t *testing.T) {
	p, _, txs := relayPair(t)
	tag, relay := p.engine.AttestBlock(7, 2, txs[3:])
	if tag == nil || relay != nil {
		t.Errorf("public-only batch: tag %v relay %v, want a tag and no relay", tag != nil, relay != nil)
	}
}

// TestRelayRefusesUnverifiedTx mirrors TestAttestRefusesUnverifiedTx: the
// enclave seals no key relay over a batch holding a transaction it never
// opened itself.
func TestRelayRefusesUnverifiedTx(t *testing.T) {
	p, _, txs := relayPair(t)
	client, _ := NewClient(p.engine.EnvelopePublicKey())
	smuggled, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("forged"))
	if tag, relay := p.engine.AttestBlock(7, 2, append(txs[:len(txs):len(txs)], smuggled)); tag != nil || relay != nil {
		t.Error("must refuse tag and relay over an unverified confidential tx")
	}
	if _, relay := p.engine.AttestBlock(7, 2, txs); relay == nil {
		t.Error("clean batch must remain relayable")
	}
	p.engine.DropPreVerified(hashesOf(txs))
	if _, relay := p.engine.AttestBlock(7, 2, txs); relay != nil {
		t.Error("must refuse to relay after cache entries are dropped")
	}
}

// TestRelayRefusesAttestationSeededEntries pins the no-chaining rule for key
// recovery: keys a follower received through a relay never ground a relay
// (or a tag) of its own.
func TestRelayRefusesAttestationSeededEntries(t *testing.T) {
	p, f, txs := relayPair(t)
	conf := txs[:3] // every entry on the follower will be relay-seeded
	_, relay := p.engine.AttestBlock(7, 2, conf)
	if !f.engine.AdoptKeyRelay(7, 2, txRoot(conf), conf, relay) {
		t.Fatal("adopt failed")
	}
	if tag, relay := f.engine.AttestBlock(8, 3, conf); tag != nil || relay != nil {
		t.Error("relay-seeded entries must not ground a new tag or relay")
	}
	// Opening the envelopes itself restores both.
	if got := len(f.engine.PreVerifyBatch(conf)); got != len(conf) {
		t.Fatalf("pre-verified %d of %d", got, len(conf))
	}
	if tag, relay := f.engine.AttestBlock(8, 3, conf); tag == nil || relay == nil {
		t.Error("locally verified batch must be attestable and relayable")
	}
}

// TestRelayAcrossEpochs: a relay sealed under the previous epoch still opens
// inside the acceptance window (blocks proposed just before a rotation
// activates), and is refused once that epoch has left it.
func TestRelayAcrossEpochs(t *testing.T) {
	p, txs := attestStack(t)
	_, relay := p.engine.AttestBlock(7, 2, txs)
	opts := AllOptimizations()
	opts.EpochWindow = 1
	f := newStack(t, opts)
	for _, want := range []bool{true, false} { // follower at epoch 2, then 3
		epoch, err := f.engine.AdvanceEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if got := f.engine.AdoptKeyRelay(7, 2, txRoot(txs), txs, relay); got != want {
			t.Errorf("follower at epoch %d, window 1: epoch-1 relay adopted=%v, want %v", epoch, got, want)
		}
		f.engine.DropPreVerified(hashesOf(txs))
	}
}

// A follower's own pre-verification outranks the relay: adoption leaves the
// local entry (which can ground a later attestation) in place.
func TestKeyRelayKeepsLocalEntries(t *testing.T) {
	p, f, txs := relayPair(t)
	_, relay := p.engine.AttestBlock(7, 2, txs)
	f.engine.PreVerifyBatch(txs[:1])
	if !f.engine.AdoptKeyRelay(7, 2, txRoot(txs), txs, relay) {
		t.Fatal("adopt failed")
	}
	if meta, _ := f.engine.preCache.get(txs[0].Hash()); meta.attested {
		t.Error("adoption overwrote a locally verified entry")
	}
	if meta, _ := f.engine.preCache.get(txs[1].Hash()); !meta.attested || len(meta.ktx) == 0 {
		t.Error("adoption did not seed the entry this enclave had not opened")
	}
}

// TestRelayBoundToBlock replays a relay under another height, proposer and
// transaction set: the AAD binding must fail each, and a refused relay seeds
// nothing.
func TestRelayBoundToBlock(t *testing.T) {
	p, f, txs := relayPair(t)
	_, relay := p.engine.AttestBlock(7, 2, txs)
	root := txRoot(txs)
	reordered := []*chain.Tx{txs[1], txs[0], txs[2], txs[3], txs[4]}
	for name, adopt := range map[string]func() bool{
		"height":    func() bool { return f.engine.AdoptKeyRelay(8, 2, root, txs, relay) },
		"proposer":  func() bool { return f.engine.AdoptKeyRelay(7, 3, root, txs, relay) },
		"tx set":    func() bool { return f.engine.AdoptKeyRelay(7, 2, txRoot(txs[1:]), txs[1:], relay) },
		"tx order":  func() bool { return f.engine.AdoptKeyRelay(7, 2, txRoot(reordered), reordered, relay) },
		"tx count":  func() bool { return f.engine.AdoptKeyRelay(7, 2, root, txs[1:], relay) },
		"no engine": func() bool { return f.public.AdoptKeyRelay(7, 2, root, txs, relay) },
	} {
		if adopt() {
			t.Errorf("relay replayed under another %s was adopted", name)
		}
	}
	if got := f.engine.PreVerifiedCount(); got != 0 {
		t.Errorf("refused relays seeded %d entries", got)
	}
	if !f.engine.AdoptKeyRelay(7, 2, root, txs, relay) {
		t.Error("the relay must still open for its own block")
	}
}

// TestMalformedRelayFallsBack feeds a follower bit-flipped, truncated,
// wrong-epoch and empty relays: each is refused, and execution under the
// (still valid) tag produces the receipts the relay would have.
func TestMalformedRelayFallsBack(t *testing.T) {
	p, f, txs := relayPair(t)
	_, relay := p.engine.AttestBlock(7, 2, txs)
	want := executeAll(t, p.engine, txs)

	flipped := append([]byte(nil), relay...)
	flipped[len(flipped)/2] ^= 0x40
	futureEpoch := append([]byte(nil), relay...)
	binary.BigEndian.PutUint64(futureEpoch[:8], 9)
	zeroEpoch := append([]byte(nil), relay...)
	binary.BigEndian.PutUint64(zeroEpoch[:8], 0)
	for name, bad := range map[string][]byte{
		"bit-flipped":  flipped,
		"truncated":    relay[:len(relay)-1],
		"header only":  relay[:8],
		"short":        relay[:3],
		"empty":        nil,
		"future epoch": futureEpoch,
		"zero epoch":   zeroEpoch,
	} {
		if f.engine.AdoptKeyRelay(7, 2, txRoot(txs), txs, bad) {
			t.Errorf("%s relay was adopted", name)
		}
		f.engine.TrustPreVerified(txs)
		ecdh0, _, _ := opens()
		got := executeAll(t, f.engine, txs)
		if ecdh1, _, _ := opens(); ecdh1-ecdh0 != 3 {
			t.Errorf("%s relay: %d full opens, want 3", name, ecdh1-ecdh0)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s relay: receipt %d differs through the fallback", name, i)
			}
		}
		f.engine.DropPreVerified(hashesOf(txs))
	}
}

// TestCachedKeyThatFailsToOpen pins who may fail a transaction: a relayed
// key that is well-formed but belongs to another envelope only withdraws the
// shortcut (full open, signature re-checked), while a key this enclave
// recovered itself failing to open the same envelope is a hard error.
func TestCachedKeyThatFailsToOpen(t *testing.T) {
	p, f, txs := relayPair(t)
	tx := txs[0]
	other, _ := p.engine.preCache.get(txs[1].Hash()) // a real k_tx, of another envelope
	want := executeAll(t, p.engine, txs[:1])

	f.engine.preCache.put(tx.Hash(), preMeta{ktx: other.ktx, verified: true, attested: true})
	f.engine.Profile().Reset()
	ecdh0, _, relayed0 := opens()
	got := executeAll(t, f.engine, txs[:1])
	ecdh1, _, relayed1 := opens()
	if !bytes.Equal(got[0], want[0]) {
		t.Error("receipt differs after falling back from a mismatched relayed key")
	}
	if ecdh1-ecdh0 != 1 || relayed1 != relayed0 {
		t.Errorf("opens: ecdh +%d relayed +%d, want +1 +0", ecdh1-ecdh0, relayed1-relayed0)
	}
	if n := f.engine.Profile().Snapshot()[OpTxVerify].Count; n != 1 {
		t.Errorf("signature checked %d times, want 1: a relay that lied about the key vouches for nothing", n)
	}

	f.engine.preCache.put(tx.Hash(), preMeta{ktx: other.ktx, verified: true})
	if _, err := f.engine.Execute(tx); err == nil {
		t.Error("a locally recovered key that fails to open must fail the transaction")
	}
}

// FuzzAdoptKeyRelay drives the relay opener with arbitrary bytes in place of
// the relay: it must never panic, must adopt nothing but the genuine relay,
// and whatever it was fed the block's transactions still execute — there is
// no input that turns into "reject the block".
func FuzzAdoptKeyRelay(f *testing.F) {
	p, follower, txs := relayPair(f)
	_, relay := p.engine.AttestBlock(7, 2, txs)
	root := txRoot(txs)
	f.Add(relay)
	f.Add(relay[:len(relay)-1])
	f.Add(relay[:8])
	f.Add(append(append([]byte(nil), relay...), 0))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, len(relay)))

	f.Fuzz(func(t *testing.T, data []byte) {
		follower.engine.DropPreVerified(hashesOf(txs))
		adopted := follower.engine.AdoptKeyRelay(7, 2, root, txs, data)
		if adopted != bytes.Equal(data, relay) {
			t.Fatalf("adopted=%v for relay %x", adopted, data)
		}
		executeAll(t, follower.engine, txs)
	})
}
