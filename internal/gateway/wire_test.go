package gateway

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"confide/internal/chain"
)

func TestDecodeSubmitBounds(t *testing.T) {
	tx := &chain.Tx{Type: chain.TxTypePublic, Payload: []byte("hello")}
	body, _ := json.Marshal(SubmitRequest{Tx: tx.Encode()})

	got, err := decodeSubmit(body, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tx.Hash() {
		t.Fatal("round-trip hash mismatch")
	}
	if _, err := decodeSubmit(body, 4); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("undersized bound: %v, want ErrTooLarge", err)
	}
	if _, err := decodeSubmit([]byte("{"), 1024); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad JSON: %v, want ErrBadRequest", err)
	}
	if _, err := decodeSubmit([]byte(`{"tx":""}`), 1024); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty tx: %v, want ErrBadRequest", err)
	}
}

func TestDecodeBatchBounds(t *testing.T) {
	tx := &chain.Tx{Type: chain.TxTypePublic, Payload: []byte("x")}
	body, _ := json.Marshal(BatchSubmitRequest{Txs: [][]byte{tx.Encode(), tx.Encode(), tx.Encode()}})

	txs, err := decodeBatch(body, 3, 1024)
	if err != nil || len(txs) != 3 {
		t.Fatalf("decodeBatch: %v (%d txs)", err, len(txs))
	}
	if _, err := decodeBatch(body, 2, 1024); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("over-long batch: %v, want ErrBadRequest", err)
	}
	empty, _ := json.Marshal(BatchSubmitRequest{})
	if _, err := decodeBatch(empty, 8, 1024); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: %v, want ErrBadRequest", err)
	}
}

func TestParseTxHash(t *testing.T) {
	var h chain.Hash
	for i := range h {
		h[i] = byte(i)
	}
	for _, s := range []string{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"0x000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
	} {
		got, err := parseTxHash(s)
		if err != nil || got != h {
			t.Fatalf("parseTxHash(%q) = %x, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "zz", "0x1234", "0x"} {
		if _, err := parseTxHash(s); err == nil {
			t.Fatalf("parseTxHash(%q) accepted", s)
		}
	}
}

func TestVerifyProofRejectsTampering(t *testing.T) {
	// Build a real single-tx block proof by hand.
	tx := &chain.Tx{Type: chain.TxTypePublic, Payload: []byte("payload")}
	leaf := tx.Hash()
	root := chain.MerkleRoot([]chain.Hash{leaf})
	header := (&chain.Block{Header: chain.Header{Height: 5, TxRoot: root, Proposer: 1}}).HeaderBytes()
	good := &Proof{Header: header, Height: 5, Tx: tx.Encode(), Index: 0}

	if _, err := VerifyProof(good); err != nil {
		t.Fatalf("genuine proof rejected: %v", err)
	}
	if _, err := VerifyProof(nil); !errors.Is(err, ErrBadProof) {
		t.Fatal("nil proof accepted")
	}
	bad := *good
	bad.Height = 6 // height must match the header's
	if _, err := VerifyProof(&bad); !errors.Is(err, ErrBadProof) {
		t.Fatal("height-mismatched proof accepted")
	}
	bad = *good
	bad.Tx = (&chain.Tx{Type: chain.TxTypePublic, Payload: []byte("other")}).Encode()
	if _, err := VerifyProof(&bad); !errors.Is(err, ErrBadProof) {
		t.Fatal("substituted transaction accepted")
	}
	bad = *good
	tamperedRoot := root
	tamperedRoot[0] ^= 0x01
	bad.Header = (&chain.Block{Header: chain.Header{Height: 5, TxRoot: tamperedRoot, Proposer: 1}}).HeaderBytes()
	if _, err := VerifyProof(&bad); !errors.Is(err, ErrBadProof) {
		t.Fatal("tampered tx-root accepted")
	}
	bad = *good
	bad.Path = []ProofStep{{Sibling: make([]byte, 31)}} // not 32 bytes
	if _, err := VerifyProof(&bad); !errors.Is(err, ErrBadProof) {
		t.Fatal("malformed path accepted")
	}
	bad = *good
	var zero chain.Hash
	bad.Header = chain.Encode(chain.List(
		chain.Uint(5), chain.Bytes(zero[:]), chain.Bytes(root[:31]), // five fields, short tx-root
		chain.Uint(0), chain.Uint(1),
	))
	if _, err := VerifyProof(&bad); !errors.Is(err, ErrBadProof) {
		t.Fatal("31-byte tx-root accepted")
	}
}

func TestClientLimiter(t *testing.T) {
	l := newClientLimiter(10, 2, 3) // 10/s, burst 2, at most 3 clients
	now := time.Unix(1000, 0)

	if !l.allow("a", 1, now) || !l.allow("a", 1, now) {
		t.Fatal("burst of 2 rejected")
	}
	if l.allow("a", 1, now) {
		t.Fatal("third instant request allowed past burst")
	}
	// 100ms refills one token at 10/s.
	if !l.allow("a", 1, now.Add(100*time.Millisecond)) {
		t.Fatal("refilled token rejected")
	}
	// Other clients have independent buckets.
	if !l.allow("b", 1, now) {
		t.Fatal("independent client rejected")
	}
	// Eviction keeps the table bounded.
	l.allow("c", 1, now.Add(time.Second))
	l.allow("d", 1, now.Add(2*time.Second))
	l.allow("e", 1, now.Add(3*time.Second))
	if got := l.clients(); got > 3 {
		t.Fatalf("limiter tracks %d clients, cap 3", got)
	}
	// Disabled limiter admits everything.
	off := newClientLimiter(0, 0, 0)
	for i := 0; i < 100; i++ {
		if !off.allow("x", 1, now) {
			t.Fatal("disabled limiter rejected")
		}
	}
	if off.retryAfter(1) != 0 {
		t.Fatal("disabled limiter advertises a retry delay")
	}
}

func TestParseWait(t *testing.T) {
	max := 10 * time.Second
	cases := map[string]time.Duration{
		"":      0,
		"abc":   0,
		"-5":    0,
		"0":     0,
		"250":   250 * time.Millisecond,
		"99999": max,
	}
	for in, want := range cases {
		if got := parseWait(in, max); got != want {
			t.Fatalf("parseWait(%q) = %s, want %s", in, got, want)
		}
	}
}
