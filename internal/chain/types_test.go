package chain

import (
	"bytes"
	"testing"

	ccrypto "confide/internal/crypto"
)

func signedRawTx(t *testing.T, method string, args ...[]byte) (*RawTx, *ccrypto.Signer) {
	t.Helper()
	signer, err := ccrypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	r := &RawTx{
		From:      Address(signer.Address()),
		Contract:  AddressFromBytes([]byte("demo-contract")),
		Method:    method,
		Args:      args,
		Nonce:     42,
		SenderPub: signer.Public(),
	}
	sig, err := signer.Sign(r.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Signature = sig
	return r, signer
}

func TestRawTxEncodeDecodeRoundTrip(t *testing.T) {
	r, _ := signedRawTx(t, "transfer", []byte("alice"), []byte("bob"), []byte{0, 100})
	back, err := DecodeRawTx(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.From != r.From || back.Contract != r.Contract || back.Method != r.Method || back.Nonce != r.Nonce {
		t.Error("scalar fields corrupted")
	}
	if len(back.Args) != 3 || !bytes.Equal(back.Args[2], []byte{0, 100}) {
		t.Error("args corrupted")
	}
	if !bytes.Equal(back.Signature, r.Signature) || !bytes.Equal(back.SenderPub, r.SenderPub) {
		t.Error("signature fields corrupted")
	}
}

func TestRawTxSignatureVerifies(t *testing.T) {
	r, _ := signedRawTx(t, "transfer")
	if err := r.VerifySignature(); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
}

func TestRawTxSignatureRejectsTamper(t *testing.T) {
	r, _ := signedRawTx(t, "transfer", []byte("amount=10"))
	r.Args[0] = []byte("amount=99")
	if err := r.VerifySignature(); err == nil {
		t.Error("tampered args passed verification")
	}
}

func TestRawTxSignatureRejectsSpoofedFrom(t *testing.T) {
	r, _ := signedRawTx(t, "transfer")
	r.From[0] ^= 1
	if err := r.VerifySignature(); err == nil {
		t.Error("From not bound to sender key")
	}
}

func TestDecodeRawTxRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0x80}, Encode(List(String("x")))} {
		if _, err := DecodeRawTx(data); err == nil {
			t.Errorf("DecodeRawTx(%x) should fail", data)
		}
	}
}

func TestTxHashStability(t *testing.T) {
	tx := &Tx{Type: TxTypeConfidential, Payload: []byte("envelope-bytes")}
	if tx.Hash() != tx.Hash() {
		t.Error("hash not deterministic")
	}
	other := &Tx{Type: TxTypePublic, Payload: []byte("envelope-bytes")}
	if tx.Hash() == other.Hash() {
		t.Error("type must affect the hash")
	}
	back, err := DecodeTx(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != tx.Hash() {
		t.Error("hash changed across encode/decode")
	}
}

func TestDecodeTxRejectsBadType(t *testing.T) {
	bad := Encode(List(Uint(7), Bytes([]byte("p"))))
	if _, err := DecodeTx(bad); err == nil {
		t.Error("type 7 should be rejected")
	}
}

func TestReceiptRoundTrip(t *testing.T) {
	r := &Receipt{
		TxHash:  Hash{1, 2, 3},
		From:    AddressFromBytes([]byte("alice")),
		To:      AddressFromBytes([]byte("contract")),
		Status:  ReceiptOK,
		GasUsed: 12345,
		Output:  []byte("result"),
		Logs:    []string{"issued", "transferred"},
	}
	back, err := DecodeReceipt(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.TxHash != r.TxHash || back.Status != r.Status || back.GasUsed != r.GasUsed {
		t.Error("scalar fields corrupted")
	}
	if len(back.Logs) != 2 || back.Logs[1] != "transferred" {
		t.Error("logs corrupted")
	}
	if !bytes.Equal(back.Output, r.Output) {
		t.Error("output corrupted")
	}
}

func TestBlockRoundTripAndTxRoot(t *testing.T) {
	b := &Block{
		Header: Header{Height: 9, Timestamp: 1000, Proposer: 2, PrevHash: Hash{0xaa}},
		Txs: []*Tx{
			{Type: TxTypePublic, Payload: []byte("p1")},
			{Type: TxTypeConfidential, Payload: []byte("envelope")},
		},
	}
	root := b.ComputeTxRoot()
	if root == (Hash{}) {
		t.Fatal("tx root is zero")
	}
	back, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != b.Hash() {
		t.Error("block hash changed across round trip")
	}
	if back.ComputeTxRoot() != root {
		t.Error("tx root changed across round trip")
	}
	if len(back.Txs) != 2 || back.Txs[1].Type != TxTypeConfidential {
		t.Error("transactions corrupted")
	}
}

// TestBlockTrailers covers the optional attestation trailer that rides
// outside the header: it does not change the block hash, it survives a round
// trip, and a block re-encoded without it is byte-for-byte the bare block —
// which is what makes the stored form identical on every replica.
func TestBlockTrailers(t *testing.T) {
	b := &Block{
		Header: Header{Height: 3, Proposer: 1},
		Txs:    []*Tx{{Type: TxTypeConfidential, Payload: []byte("envelope")}},
	}
	b.ComputeTxRoot()
	bare := b.Encode()
	b.Attestation = []byte("attestation")

	back, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Attestation) != "attestation" {
		t.Errorf("attestation = %q", back.Attestation)
	}
	if back.Hash() != b.Hash() {
		t.Error("the attestation changed the block hash")
	}
	back.Attestation = nil
	if !bytes.Equal(back.Encode(), bare) {
		t.Error("block re-encoded without its attestation differs from the bare block")
	}
	if got, err := DecodeBlock(bare); err != nil || len(got.Attestation) != 0 {
		t.Errorf("bare block: err=%v attestation=%q", err, got.Attestation)
	}

	hdr, txs := Bytes(b.HeaderBytes()), List(Bytes(b.Txs[0].Encode()))
	if _, err := DecodeBlock(Encode(List(hdr, txs, Bytes(nil), Bytes(nil)))); err == nil {
		t.Error("a second trailer must be rejected")
	}
	if _, err := DecodeBlock(Encode(List(hdr, txs, List()))); err == nil {
		t.Error("a list-typed attestation must be rejected")
	}
}

func TestAddressFromBytesPadding(t *testing.T) {
	a := AddressFromBytes([]byte{1, 2})
	if a[18] != 1 || a[19] != 2 || a[0] != 0 {
		t.Errorf("padding wrong: %v", a)
	}
	long := AddressFromBytes(bytes.Repeat([]byte{9}, 25))
	if long[0] != 9 {
		t.Error("long input should keep the low 20 bytes")
	}
	if a.String()[:2] != "0x" {
		t.Error("string form should be 0x-prefixed")
	}
}
