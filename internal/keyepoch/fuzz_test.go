package keyepoch

import (
	"bytes"
	"testing"
)

// FuzzEpochHeader exercises the epoch-header/record-tag codec: arbitrary
// bytes must never panic, every parse that succeeds must re-encode to an
// equivalent payload, and every wrap must parse back exactly. The codec sits
// on the untrusted path — envelope headers arrive in client transactions,
// record tags are read back from disk — so it must be total.
func FuzzEpochHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0xAA, 0xBB})                                                 // un-tagged envelope (bare SEC1 point)
	f.Add(WrapEnvelope(1, []byte("env")))                                           // tagged envelope
	f.Add(WrapEnvelope(1<<40, []byte{}))                                            // big epoch, empty body
	f.Add(WrapRecord(3, []byte("sealed")))                                          // record tag
	f.Add([]byte{0xE7, 0x00})                                                       // epoch 0 (forbidden)
	f.Add([]byte{0xE8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // unterminated uvarint
	f.Add(Rotation{NewEpoch: 2, ActivationHeight: 10}.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Envelope path: parse, and if it succeeds the round trip must hold.
		if e, env, err := ParseEnvelope(data); err == nil {
			if e == 0 {
				t.Fatal("ParseEnvelope returned epoch 0")
			}
			// Re-wrap and re-parse: the semantics must round-trip even
			// when the input used a non-minimal uvarint encoding.
			e2, env2, err := ParseEnvelope(WrapEnvelope(e, env))
			if err != nil || e2 != e || !bytes.Equal(env2, env) {
				t.Fatalf("envelope re-wrap mismatch: epoch %d (%v)", e, err)
			}
		}
		// Record path.
		if e, sealed, err := ParseRecord(data); err == nil {
			if e == 0 {
				t.Fatal("ParseRecord returned epoch 0")
			}
			e2, sealed2, err := ParseRecord(WrapRecord(e, sealed))
			if err != nil || e2 != e || !bytes.Equal(sealed2, sealed) {
				t.Fatalf("record re-wrap mismatch: epoch %d (%v)", e, err)
			}
		}
		// Rotation payload: decode must be total, round trip on success.
		if rot, err := DecodeRotation(data); err == nil {
			if rot.NewEpoch < 2 {
				t.Fatalf("DecodeRotation accepted epoch %d", rot.NewEpoch)
			}
			dec, err := DecodeRotation(rot.Encode())
			if err != nil || dec != rot {
				t.Fatalf("rotation re-encode mismatch: %+v vs %+v (%v)", rot, dec, err)
			}
		}
	})
}
