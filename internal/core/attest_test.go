package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"confide/internal/chain"
	"confide/internal/crypto"
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

func txRoot(txs []*chain.Tx) chain.Hash {
	leaves := make([]chain.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Hash()
	}
	return chain.MerkleRoot(leaves)
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

// attestBatch is one shape a block takes, with its confidential count.
type attestBatch struct {
	name  string
	batch []*chain.Tx
	conf  int
}

// attestBatches are the shapes: mixed, confidential-only and public-only,
// whose attestation seals no keys but still authenticates.
func attestBatches(txs []*chain.Tx) []attestBatch {
	return []attestBatch{
		{"mixed", txs, 3},
		{"confidential only", txs[:3], 3},
		{"public only", txs[3:], 0},
	}
}

// TestAttestPreVerifiedRoundTrip is the check alone (VerifyPreVerifyTag, the
// pair the benchmark times): each shape's attestation is one epoch, one
// nonce, one GCM tag and a key per confidential transaction; a follower
// accepts it for its own block in one ecall and adopts nothing.
func TestAttestPreVerifiedRoundTrip(t *testing.T) {
	p, f, txs := relayPair(t)
	for _, c := range attestBatches(txs) {
		att := p.engine.AttestPreVerified(7, 2, c.batch)
		if want := 8 + crypto.AEADOverhead + c.conf*crypto.SymKeySize; len(att) != want {
			t.Fatalf("%s: attestation is %d B, want %d", c.name, len(att), want)
		}
		if got := AttestationCarriesKeys(att); got != (c.conf > 0) {
			t.Errorf("%s: AttestationCarriesKeys = %v", c.name, got)
		}
		ecalls := f.engine.Enclave().Stats().Ecalls
		if !f.engine.VerifyPreVerifyTag(7, 2, txRoot(c.batch), att) {
			t.Errorf("%s: follower must accept the proposer's attestation", c.name)
		}
		if n := f.engine.Enclave().Stats().Ecalls - ecalls; n != 1 {
			t.Errorf("%s: the check took %d ecalls, want 1", c.name, n)
		}
		if got := f.engine.PreVerifiedCount(); got != 0 {
			t.Errorf("%s: the check seeded %d entries", c.name, got)
		}
	}
}

// TestKeyRelayRoundTrip has a follower adopt each key-carrying shape's
// attestation: one ecall seeds one attested entry per confidential
// transaction, and the follower's receipts match the proposer's without a
// single private-key open.
func TestKeyRelayRoundTrip(t *testing.T) {
	p, f, txs := relayPair(t)
	for _, c := range attestBatches(txs) {
		if c.conf == 0 {
			continue // TestKeyRelayOnlyForConfidentialTxs
		}
		adoptShape(t, p, f, c)

		want := executeAll(t, p.engine, c.batch) // the proposer's own keys
		ecdh0, _, relayed0 := opens()
		got := executeAll(t, f.engine, c.batch)
		ecdh1, _, relayed1 := opens()
		if relayed1-relayed0 != uint64(c.conf) || ecdh1 != ecdh0 {
			t.Errorf("%s: follower opens: relayed +%d ecdh +%d, want +%d +0", c.name, relayed1-relayed0, ecdh1-ecdh0, c.conf)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: receipt %d differs between proposer and attestation-seeded follower", c.name, i)
			}
		}

		// The attestation grants no lifetime beyond the block: entries leave
		// with the commit sweep like any other.
		f.engine.DropPreVerified(hashesOf(c.batch))
		if got := f.engine.PreVerifiedCount(); got != 0 {
			t.Errorf("%s: %d attestation-seeded entries survive DropPreVerified", c.name, got)
		}
	}
}

// TestKeyRelayOnlyForConfidentialTxs: a public-only block's attestation
// seals no keys, yet it still authenticates, and adopting it seeds nothing.
func TestKeyRelayOnlyForConfidentialTxs(t *testing.T) {
	p, f, txs := relayPair(t)
	for _, c := range attestBatches(txs) {
		if c.conf != 0 {
			continue
		}
		if att := p.engine.AttestPreVerified(7, 2, c.batch); AttestationCarriesKeys(att) {
			t.Errorf("%s: attestation carries keys", c.name)
		}
		adoptShape(t, p, f, c)
	}
}

// adoptShape has f adopt p's attestation of c.batch and checks it took one
// ecall and seeded one entry per confidential transaction.
func adoptShape(t *testing.T, p, f *testStack, c attestBatch) {
	t.Helper()
	att := p.engine.AttestPreVerified(7, 2, c.batch)
	ecalls := f.engine.Enclave().Stats().Ecalls
	if !f.engine.AdoptAttestation(7, 2, txRoot(c.batch), c.batch, att) {
		t.Fatalf("%s: follower must adopt the proposer's attestation", c.name)
	}
	if n := f.engine.Enclave().Stats().Ecalls - ecalls; n != 1 {
		t.Errorf("%s: adoption took %d ecalls, want 1", c.name, n)
	}
	if got := f.engine.PreVerifiedCount(); got != c.conf {
		t.Fatalf("%s: adoption seeded %d entries, want %d (confidential only)", c.name, got, c.conf)
	}
}

// TestAttestRefusesUnverifiedTx is the forged-proposer regression: a host
// asking its enclave to attest a batch containing a public transaction the
// enclave never verified must get nothing.
func TestAttestRefusesUnverifiedTx(t *testing.T) {
	refusesSmuggled(t, func(c *Client) *chain.Tx {
		tx, _ := c.NewPublicTx(counterAddr, "set", []byte("forged"))
		return tx
	})
}

// TestRelayRefusesUnverifiedTx is the same for a confidential transaction,
// whose key the attestation would otherwise relay.
func TestRelayRefusesUnverifiedTx(t *testing.T) {
	refusesSmuggled(t, func(c *Client) *chain.Tx {
		tx, _, _ := c.NewConfidentialTx(counterAddr, "set", []byte("forged"))
		return tx
	})
}

func refusesSmuggled(t *testing.T, smuggle func(*Client) *chain.Tx) {
	t.Helper()
	s, txs := attestStack(t)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	if att := s.engine.AttestPreVerified(7, 2, append(txs[:len(txs):len(txs)], smuggle(client))); att != nil {
		t.Error("must refuse to attest an unverified tx")
	}
	// The clean batch still attests afterwards (refusal has no side effect).
	if att := s.engine.AttestPreVerified(7, 2, txs); att == nil {
		t.Error("clean batch must remain attestable")
	}
	// Once entries are dropped (e.g. after commit), attestation is refused
	// rather than silently claiming stale verification.
	s.engine.DropPreVerified(hashesOf(txs))
	if att := s.engine.AttestPreVerified(7, 2, txs); att != nil {
		t.Error("must refuse to attest after cache entries are dropped")
	}
}

// TestAttestRejectsAttestationSeededEntries pins the no-transitive-trust
// rule for signatures a peer vouched for: such entries never ground an
// attestation of the receiver's own. Opening the envelopes itself restores it.
func TestAttestRejectsAttestationSeededEntries(t *testing.T) {
	rejectsSeeded(t, func(e *Engine, conf []*chain.Tx, _ []byte) bool {
		e.TrustPreVerified(conf)
		return true
	})
}

// TestRelayRefusesAttestationSeededEntries is the same rule for keys a
// follower received through an attestation.
func TestRelayRefusesAttestationSeededEntries(t *testing.T) {
	rejectsSeeded(t, func(e *Engine, conf []*chain.Tx, att []byte) bool {
		return e.AdoptAttestation(7, 2, txRoot(conf), conf, att)
	})
}

func rejectsSeeded(t *testing.T, seed func(e *Engine, conf []*chain.Tx, att []byte) bool) {
	t.Helper()
	p, f, txs := relayPair(t)
	conf := txs[:3] // every entry on the follower will be attestation-seeded
	if !seed(f.engine, conf, p.engine.AttestPreVerified(7, 2, conf)) || f.engine.PreVerifiedCount() != len(conf) {
		t.Fatal("attestation-seeded entries expected in cache")
	}
	if att := f.engine.AttestPreVerified(8, 3, conf); att != nil {
		t.Error("attestation-seeded entries must not ground a new attestation")
	}
	if got := len(f.engine.PreVerifyBatch(conf)); got != len(conf) {
		t.Fatalf("pre-verified %d of %d", got, len(conf))
	}
	if att := f.engine.AttestPreVerified(8, 3, conf); att == nil {
		t.Error("locally verified batch must be attestable")
	}
}

// A public engine (no ring) mints no attestation and accepts none.
func TestAttestPublicEngineUntagged(t *testing.T) {
	s, txs := attestStack(t)
	att := s.engine.AttestPreVerified(7, 2, txs)
	if s.public.AttestPreVerified(7, 2, txs) != nil {
		t.Error("public engine must not produce attestations")
	}
	if s.public.VerifyPreVerifyTag(7, 2, txRoot(txs), att) || s.public.AdoptAttestation(7, 2, txRoot(txs), txs, att) {
		t.Error("public engine must not accept attestations")
	}
}

// TestRelayBoundToBlock replays an attestation under another height,
// proposer and transaction set: the AAD binding must fail each, and a
// refused attestation seeds nothing.
func TestRelayBoundToBlock(t *testing.T) {
	p, f, txs := relayPair(t)
	att := p.engine.AttestPreVerified(7, 2, txs)
	root := txRoot(txs)
	reordered := []*chain.Tx{txs[1], txs[0], txs[2], txs[3], txs[4]}
	for name, adopt := range map[string]func() bool{
		"height":     func() bool { return f.engine.AdoptAttestation(8, 2, root, txs, att) },
		"proposer":   func() bool { return f.engine.AdoptAttestation(7, 3, root, txs, att) },
		"tx set":     func() bool { return f.engine.AdoptAttestation(7, 2, txRoot(txs[1:]), txs[1:], att) },
		"tx order":   func() bool { return f.engine.AdoptAttestation(7, 2, txRoot(reordered), reordered, att) },
		"tx count":   func() bool { return f.engine.AdoptAttestation(7, 2, root, txs[1:], att) },
		"tag height": func() bool { return f.engine.VerifyPreVerifyTag(8, 2, root, att) },
		"tag root":   func() bool { return f.engine.VerifyPreVerifyTag(7, 2, txRoot(txs[:4]), att) },
	} {
		if adopt() {
			t.Errorf("attestation replayed under another %s was accepted", name)
		}
	}
	if got := f.engine.PreVerifiedCount(); got != 0 {
		t.Errorf("refused attestations seeded %d entries", got)
	}
	if !f.engine.AdoptAttestation(7, 2, root, txs, att) {
		t.Error("the attestation must still open for its own block")
	}
}

// TestRelayAcrossEpochs: an attestation sealed under the previous epoch
// still opens inside the acceptance window (blocks proposed just before a
// rotation activates), and is refused once that epoch has left it.
func TestRelayAcrossEpochs(t *testing.T) {
	p, txs := attestStack(t)
	att := p.engine.AttestPreVerified(7, 2, txs)
	opts := AllOptimizations()
	opts.EpochWindow = 1
	f := newStack(t, opts)
	for _, want := range []bool{true, false} { // follower at epoch 2, then 3
		epoch, err := f.engine.AdvanceEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if got := f.engine.AdoptAttestation(7, 2, txRoot(txs), txs, att); got != want {
			t.Errorf("follower at epoch %d, window 1: epoch-1 attestation adopted=%v, want %v", epoch, got, want)
		}
		f.engine.DropPreVerified(hashesOf(txs))
	}
}

// A follower's own pre-verification outranks the attestation: adoption
// leaves the local entry (which can ground a later attestation) in place.
func TestKeyRelayKeepsLocalEntries(t *testing.T) {
	p, f, txs := relayPair(t)
	att := p.engine.AttestPreVerified(7, 2, txs)
	f.engine.PreVerifyBatch(txs[:1])
	if !f.engine.AdoptAttestation(7, 2, txRoot(txs), txs, att) {
		t.Fatal("adopt failed")
	}
	if meta, _ := f.engine.preCache.get(txs[0].Hash()); meta.attested {
		t.Error("adoption overwrote a locally verified entry")
	}
	if meta, _ := f.engine.preCache.get(txs[1].Hash()); !meta.attested || len(meta.ktx) == 0 {
		t.Error("adoption did not seed the entry this enclave had not opened")
	}
}

// TestMalformedRelayFallsBack feeds a follower bit-flipped, truncated,
// wrong-epoch and empty attestations: each is refused whole — no key and no
// vouched signature — and execution opens and checks every transaction
// itself, producing the receipts the attestation would have.
func TestMalformedRelayFallsBack(t *testing.T) {
	p, f, txs := relayPair(t)
	att := p.engine.AttestPreVerified(7, 2, txs)
	want := executeAll(t, p.engine, txs)

	flipped := append([]byte(nil), att...)
	flipped[len(flipped)/2] ^= 0x40
	futureEpoch := append([]byte(nil), att...)
	binary.BigEndian.PutUint64(futureEpoch[:8], 9)
	zeroEpoch := append([]byte(nil), att...)
	binary.BigEndian.PutUint64(zeroEpoch[:8], 0)
	for name, bad := range map[string][]byte{
		"bit-flipped":  flipped,
		"truncated":    att[:len(att)-1],
		"header only":  att[:8],
		"short":        att[:3],
		"empty":        nil,
		"future epoch": futureEpoch,
		"zero epoch":   zeroEpoch,
		"other block":  p.engine.AttestPreVerified(7, 2, txs[3:]),
	} {
		if f.engine.AdoptAttestation(7, 2, txRoot(txs), txs, bad) {
			t.Errorf("%s attestation was adopted", name)
		}
		if got := f.engine.PreVerifiedCount(); got != 0 {
			t.Errorf("%s attestation seeded %d entries", name, got)
		}
		f.engine.Profile().Reset()
		ecdh0, _, _ := opens()
		got := executeAll(t, f.engine, txs)
		if ecdh1, _, _ := opens(); ecdh1-ecdh0 != 3 {
			t.Errorf("%s attestation: %d full opens, want 3", name, ecdh1-ecdh0)
		}
		if n := f.engine.Profile().Snapshot()[OpTxVerify].Count; n != 3 {
			t.Errorf("%s attestation: %d signature checks, want 3", name, n)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s attestation: receipt %d differs through the fallback", name, i)
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

// FuzzOpenAttestation drives the attestation opener with arbitrary bytes in
// place of the attestation: it must never panic, must adopt nothing but the
// genuine attestation, and whatever it was fed the block's transactions
// still execute — there is no input that turns into "reject the block".
func FuzzOpenAttestation(f *testing.F) {
	p, follower, txs := relayPair(f)
	att := p.engine.AttestPreVerified(7, 2, txs)
	root := txRoot(txs)
	f.Add(att)
	f.Add(att[:len(att)-1])
	f.Add(att[:8])
	f.Add(append(append([]byte(nil), att...), 0))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, len(att)))
	f.Add(p.engine.AttestPreVerified(7, 2, txs[3:])) // seals no keys, for another block

	f.Fuzz(func(t *testing.T, data []byte) {
		follower.engine.DropPreVerified(hashesOf(txs))
		adopted := follower.engine.AdoptAttestation(7, 2, root, txs, data)
		if adopted != bytes.Equal(data, att) {
			t.Fatalf("adopted=%v for attestation %x", adopted, data)
		}
		executeAll(t, follower.engine, txs)
	})
}
