package chain

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRLPDecode exercises the RLP decoder on arbitrary bytes. The decoder
// must never panic, and any input it accepts must be canonical: re-encoding
// the parsed item reproduces the input byte-for-byte, and decoding that
// again yields an identical tree.
func FuzzRLPDecode(f *testing.F) {
	f.Add([]byte{0x80}) // empty string
	f.Add([]byte{0xc0}) // empty list
	f.Add([]byte{0x7f}) // single byte, self-encoding
	f.Add(Encode(String("confide")))
	f.Add(Encode(Uint(1 << 40)))
	f.Add(Encode(List(Uint(7), String("nested"), List(Bytes([]byte{0, 1, 2})))))
	f.Add(Encode(Bytes(bytes.Repeat([]byte{0xaa}, 1000)))) // long-form length
	f.Add([]byte{0xb8, 0x02, 0x01})                        // short string, truncated
	f.Add([]byte{0xf8})                                    // list header, no length byte

	f.Fuzz(func(t *testing.T, data []byte) {
		it, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(it)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical input %x (re-encodes to %x)", data, enc)
		}
		it2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded item fails to decode: %v", err)
		}
		if !reflect.DeepEqual(it, it2) {
			t.Fatalf("decode/encode/decode not a fixpoint for %x", data)
		}
	})
}

// FuzzWireDecoders drives every wire-format decoder over arbitrary bytes:
// none may panic, and any accepted value must survive an encode/decode
// round trip.
func FuzzWireDecoders(f *testing.F) {
	raw := &RawTx{
		From:      AddressFromBytes([]byte("fuzz-from")),
		Contract:  AddressFromBytes([]byte("fuzz-contract")),
		Method:    "transfer",
		Args:      [][]byte{[]byte("alice"), {0x01}},
		Nonce:     3,
		SenderPub: bytes.Repeat([]byte{4}, 65),
		Signature: bytes.Repeat([]byte{5}, 64),
	}
	tx := &Tx{Type: TxTypeConfidential, Payload: []byte("sealed-envelope")}
	rpt := &Receipt{
		TxHash:  tx.Hash(),
		From:    raw.From,
		To:      raw.Contract,
		Status:  ReceiptOK,
		GasUsed: 42,
		Output:  []byte("ok"),
		Logs:    []string{"log-a", "log-b"},
	}
	blk := &Block{
		Header: Header{Height: 9, Timestamp: 1234, Proposer: 2},
		Txs:    []*Tx{tx},
	}
	blk.ComputeTxRoot()
	f.Add(raw.Encode())
	f.Add(tx.Encode())
	f.Add(rpt.Encode())
	f.Add(blk.Encode())
	// The proposed-block shapes: a keyless attestation, one carrying a key,
	// an explicitly empty trailer, and one trailer too many.
	blk.Attestation = bytes.Repeat([]byte{6}, 8+28)
	f.Add(blk.Encode())
	blk.Attestation = bytes.Repeat([]byte{7}, 8+28+32)
	f.Add(blk.Encode())
	f.Add(Encode(List(Bytes(blk.HeaderBytes()), List(Bytes(tx.Encode())), Bytes(nil))))
	f.Add(Encode(List(Bytes(blk.HeaderBytes()), List(Bytes(tx.Encode())), Bytes([]byte{6}), Bytes([]byte{7}))))
	f.Add([]byte{})
	f.Add([]byte{0xc1, 0xc0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRawTx(data); err == nil {
			if _, err := DecodeRawTx(r.Encode()); err != nil {
				t.Fatalf("RawTx round trip: %v", err)
			}
		}
		if tx, err := DecodeTx(data); err == nil {
			if _, err := DecodeTx(tx.Encode()); err != nil {
				t.Fatalf("Tx round trip: %v", err)
			}
		}
		if r, err := DecodeReceipt(data); err == nil {
			if _, err := DecodeReceipt(r.Encode()); err != nil {
				t.Fatalf("Receipt round trip: %v", err)
			}
		}
		if b, err := DecodeBlock(data); err == nil {
			b2, err := DecodeBlock(b.Encode())
			if err != nil {
				t.Fatalf("Block round trip: %v", err)
			}
			if !bytes.Equal(b2.Attestation, b.Attestation) || b2.Hash() != b.Hash() {
				t.Fatalf("Block round trip changed the block: %x", data)
			}
		}
	})
}
