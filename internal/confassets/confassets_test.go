package confassets

import (
	"bytes"
	"math/big"
	"testing"
)

func testBlinding(_ *testing.T, label string) *big.Int {
	return DeriveBlinding([]byte("test-key"), []byte("contract"), []byte("txhash"), []byte(label), 0)
}

func TestCommitRoundTrip(t *testing.T) {
	r := testBlinding(t, "a")
	c := Commit(42, r)
	got, err := DecodeCommitment(c.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(c) {
		t.Fatal("commitment round-trip mismatch")
	}
	if Commit(43, r).Equal(c) {
		t.Fatal("different values must commit differently")
	}
	r2 := testBlinding(t, "b")
	if Commit(42, r2).Equal(c) {
		t.Fatal("different blindings must commit differently")
	}
}

// TestCommitHomomorphism checks Commit(v1,r1) + Commit(v2,r2) ==
// Commit(v1+v2, r1+r2) including edge values: zero, max uint64, and a
// blinding sum that wraps the group order.
func TestCommitHomomorphism(t *testing.T) {
	cases := []struct{ v1, v2 uint64 }{
		{0, 0},
		{1, 2},
		{0, ^uint64(0)},
		{1 << 63, 1<<63 - 1}, // sums to max uint64
	}
	for _, tc := range cases {
		r1, r2 := testBlinding(t, "h1"), testBlinding(t, "h2")
		sum := Commit(tc.v1, r1).Add(Commit(tc.v2, r2))
		want := Commit(tc.v1+tc.v2, AddScalars(r1, r2))
		if !sum.Equal(want) {
			t.Fatalf("homomorphism broken for v1=%d v2=%d", tc.v1, tc.v2)
		}
	}
}

// TestBlindingSumOverflow forces the blinding addition to wrap the group
// order: r1 = n-1, r2 = 2 → r1+r2 ≡ 1 (mod n). The homomorphic sum must
// still match a direct commitment under the reduced blinding.
func TestBlindingSumOverflow(t *testing.T) {
	n := groupOrder()
	r1 := new(big.Int).Sub(n, big.NewInt(1))
	r2 := big.NewInt(2)
	rSum := AddScalars(r1, r2)
	if rSum.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("expected wrapped blinding 1, got %v", rSum)
	}
	sum := Commit(7, r1).Add(Commit(8, r2))
	if !sum.Equal(Commit(15, rSum)) {
		t.Fatal("homomorphic sum diverges when blindings wrap mod n")
	}
	// And subtraction wrapping negative.
	diff := SubScalars(big.NewInt(1), big.NewInt(2))
	if !Commit(3, big.NewInt(1)).Sub(Commit(1, big.NewInt(2))).Equal(Commit(2, diff)) {
		t.Fatal("homomorphic difference diverges when blindings wrap below zero")
	}
}

func TestCommitZeroAndMax(t *testing.T) {
	r := testBlinding(t, "edge")
	// Zero value: C = r*H, still a valid non-identity commitment.
	c0 := Commit(0, r)
	if c0.P.IsIdentity() {
		t.Fatal("zero-value commitment must not be the identity")
	}
	if _, err := DecodeCommitment(c0.Bytes()); err != nil {
		t.Fatalf("zero-value commitment must serialize: %v", err)
	}
	// Max value.
	cm := Commit(^uint64(0), r)
	if cm.Equal(c0) {
		t.Fatal("max and zero commitments collide")
	}
	// Zero blinding (legal, just not hiding): C = v*G.
	cz := Commit(5, big.NewInt(0))
	if !cz.P.Equal(mulBase(big.NewInt(5))) {
		t.Fatal("zero-blinding commitment must equal v*G")
	}
}

// TestDeriveBlindingDeterminism is the replica-determinism contract: the
// same (key, contract, tx, label, counter) must derive the identical
// blinding, and any input change must derive a different one.
func TestDeriveBlindingDeterminism(t *testing.T) {
	key := []byte("k_states-derived")
	a := DeriveBlinding(key, []byte("c1"), []byte("tx1"), []byte("alice"), 0)
	b := DeriveBlinding(key, []byte("c1"), []byte("tx1"), []byte("alice"), 0)
	if a.Cmp(b) != 0 {
		t.Fatal("same inputs must derive the same blinding")
	}
	variants := []*big.Int{
		DeriveBlinding(key, []byte("c2"), []byte("tx1"), []byte("alice"), 0),
		DeriveBlinding(key, []byte("c1"), []byte("tx2"), []byte("alice"), 0),
		DeriveBlinding(key, []byte("c1"), []byte("tx1"), []byte("bob"), 0),
		DeriveBlinding(key, []byte("c1"), []byte("tx1"), []byte("alice"), 1),
		DeriveBlinding([]byte("other"), []byte("c1"), []byte("tx1"), []byte("alice"), 0),
	}
	for i, v := range variants {
		if v.Cmp(a) == 0 {
			t.Fatalf("variant %d derived the same blinding", i)
		}
	}
	// Domain-separation ambiguity check: moving a byte across adjacent
	// parts must change the result (length framing).
	x := DeriveBlinding(key, []byte("ab"), []byte("c"), nil, 0)
	y := DeriveBlinding(key, []byte("a"), []byte("bc"), nil, 0)
	if x.Cmp(y) == 0 {
		t.Fatal("part boundaries are not framed")
	}
}

func TestRangeProofValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 32, ^uint64(0), ^uint64(0) - 1} {
		r := testBlinding(t, "rp")
		p := ProveRange64(v, r, []byte("nonce-key"))
		if !VerifyRange(Commit(v, r), p) {
			t.Fatalf("valid proof rejected for v=%d", v)
		}
		// Wrong commitment must fail.
		if VerifyRange(Commit(v+1, r), p) {
			t.Fatalf("proof for v=%d accepted against wrong commitment", v)
		}
	}
}

func TestRangeProofMarshalRoundTrip(t *testing.T) {
	r := testBlinding(t, "mrt")
	p := ProveRange64(12345, r, []byte("nk"))
	enc := p.Marshal()
	if len(enc) != RangeProofSize {
		t.Fatalf("proof size %d, want %d", len(enc), RangeProofSize)
	}
	p2, err := UnmarshalRangeProof(enc)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !bytes.Equal(p2.Marshal(), enc) {
		t.Fatal("marshal round-trip mismatch")
	}
	if !VerifyRange(Commit(12345, r), p2) {
		t.Fatal("round-tripped proof rejected")
	}
}

func TestRangeProofTamperRejected(t *testing.T) {
	r := testBlinding(t, "tamper")
	c := Commit(99, r)
	enc := ProveRange64(99, r, []byte("nk")).Marshal()
	// Flip one bit in the middle of a scalar region (guaranteed to either
	// fail decode or fail verification, never accept).
	for _, off := range []int{1 + 3*PointSize + 5, len(enc) / 2, len(enc) - 3} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		p, err := UnmarshalRangeProof(mut)
		if err != nil {
			continue
		}
		if VerifyRange(c, p) {
			t.Fatalf("bit-flipped proof at offset %d accepted", off)
		}
	}
	// Truncation and extension reject at decode.
	if _, err := UnmarshalRangeProof(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated proof decoded")
	}
	if _, err := UnmarshalRangeProof(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("extended proof decoded")
	}
}

func TestBatchVerify(t *testing.T) {
	items := make([]BatchItem, 5)
	for i := range items {
		v := uint64(i * 1000)
		r := testBlinding(t, string(rune('A'+i)))
		items[i] = BatchItem{C: Commit(v, r), Proof: ProveRange64(v, r, []byte{byte(i)})}
	}
	if !BatchVerifyRange(items) {
		t.Fatal("valid batch rejected")
	}
	if !BatchVerifyRange(nil) {
		t.Fatal("empty batch must verify")
	}
	// Corrupt one item: swap its commitment with another's.
	bad := append([]BatchItem(nil), items...)
	bad[2].C = items[3].C
	if BatchVerifyRange(bad) {
		t.Fatal("batch with mismatched commitment accepted")
	}
	// Corrupt a proof scalar.
	bad2 := append([]BatchItem(nil), items...)
	enc := bad2[1].Proof.Marshal()
	enc[len(enc)-1] ^= 1
	p, err := UnmarshalRangeProof(enc)
	if err == nil {
		bad2[1].Proof = p
		if BatchVerifyRange(bad2) {
			t.Fatal("batch with corrupted proof accepted")
		}
	}
}

func TestDisclosureReceipts(t *testing.T) {
	r := testBlinding(t, "rcpt")
	const v = 5000
	c := Commit(v, r)
	base := Receipt{
		Contract:   bytes.Repeat([]byte{0xAA}, 20),
		Key:        []byte("acct/alice"),
		Commitment: c,
		Height:     77,
		Epoch:      3,
		Verifier:   []byte("auditor-1"),
	}

	mk := func(kind Kind) *Receipt {
		rc := base
		rc.Kind = kind
		switch kind {
		case KindOpen:
			rc.Value, rc.Blinding = v, r
		case KindRange:
			rc.Proof = ProveRange64(v, r, []byte("nk"))
		case KindThreshold:
			rc.Threshold = 1000
			rc.Proof = ProveRange64(v-1000, r, []byte("nk"))
		case KindInterval:
			rc.Lo, rc.Hi = 4000, 6000
			rc.Proof = ProveRange64(v-4000, r, []byte("nk"))
			rc.Proof2 = ProveRange64(6000-v, SubScalars(big.NewInt(0), r), []byte("nk"))
		}
		rc.Sig = []byte("placeholder")
		return &rc
	}

	okSig := func(pub, msg, sig []byte) error { return nil }
	for _, kind := range []Kind{KindOpen, KindRange, KindThreshold, KindInterval} {
		rc := mk(kind)
		if err := rc.Verify(nil, okSig); err != nil {
			t.Fatalf("%v receipt rejected: %v", kind, err)
		}
		dec, err := DecodeReceipt(rc.Encode())
		if err != nil {
			t.Fatalf("%v decode: %v", kind, err)
		}
		if err := dec.Verify(nil, okSig); err != nil {
			t.Fatalf("%v decoded receipt rejected: %v", kind, err)
		}
		if !bytes.Equal(dec.Encode(), rc.Encode()) {
			t.Fatalf("%v encode round-trip mismatch", kind)
		}
	}

	// Statement violations.
	open := mk(KindOpen)
	open.Value++
	if open.VerifyStatement() == nil {
		t.Fatal("wrong opening accepted")
	}
	thr := mk(KindThreshold)
	thr.Threshold = 6000 // v < threshold: proof is for v-1000, not v-6000
	if thr.VerifyStatement() == nil {
		t.Fatal("unsatisfied threshold accepted")
	}
	iv := mk(KindInterval)
	iv.Lo, iv.Hi = 6000, 4000
	if iv.VerifyStatement() == nil {
		t.Fatal("inverted interval accepted")
	}
	// Signature failure propagates.
	badSig := func(pub, msg, sig []byte) error { return ErrBadReceipt }
	if mk(KindRange).Verify(nil, badSig) == nil {
		t.Fatal("bad signature accepted")
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"open", "range", "threshold", "interval"} {
		k, err := ParseKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func BenchmarkVerifyRangeSingle(b *testing.B) {
	r := testBlinding(nil, "bench")
	p := ProveRange64(777, r, []byte("nk"))
	c := Commit(777, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !VerifyRange(c, p) {
			b.Fatal("reject")
		}
	}
}

func BenchmarkVerifyRangeBatch16(b *testing.B) {
	items := make([]BatchItem, 16)
	for i := range items {
		v := uint64(i)
		r := testBlinding(nil, string(rune('a'+i)))
		items[i] = BatchItem{C: Commit(v, r), Proof: ProveRange64(v, r, []byte{byte(i)})}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !BatchVerifyRange(items) {
			b.Fatal("reject")
		}
	}
}
