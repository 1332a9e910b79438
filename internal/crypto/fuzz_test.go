package crypto

import (
	"bytes"
	"sync"
	"testing"
)

// fuzzEnvelopeKey amortizes P-256 key generation across fuzz iterations.
var fuzzEnvelopeKey = sync.OnceValue(func() *EnvelopeKey {
	k, err := GenerateEnvelopeKey()
	if err != nil {
		panic(err)
	}
	return k
})

// fuzzKtx is a fixed symmetric key for the cache-hit open path.
var fuzzKtx = bytes.Repeat([]byte{0x5a}, SymKeySize)

// FuzzOpenEnvelope throws arbitrary bytes at every envelope-opening path:
// the full ECIES open, the structural split, and the symmetric cache-hit
// open. None may panic; a structurally valid split must partition the
// input exactly.
func FuzzOpenEnvelope(f *testing.F) {
	key := fuzzEnvelopeKey()
	env, err := SealEnvelope(key.Public(), fuzzKtx, []byte("raw transaction body"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(env[:len(env)-1])                                    // truncated tag
	f.Add(env[:p256PointLen])                                  // key-agreement part only
	f.Add(bytes.Repeat([]byte{4}, p256PointLen+wrappedKeyLen)) // bad point, right size
	f.Add([]byte{})
	tampered := append([]byte(nil), env...)
	tampered[0] ^= 0x01 // breaks the point encoding
	f.Add(tampered)

	f.Fuzz(func(t *testing.T, data []byte) {
		if ktx, payload, err := key.OpenEnvelope(data); err == nil {
			// Only a well-formed envelope may open; its parts must be sane.
			if len(ktx) != SymKeySize {
				t.Fatalf("opened envelope returned %d-byte k_tx", len(ktx))
			}
			if _, err := OpenEnvelopeWithKey(data, ktx); err != nil {
				t.Fatalf("symmetric reopen failed after full open: %v", err)
			}
			_ = payload
		}
		if keyPart, sealed, err := SplitEnvelope(data); err == nil {
			if len(keyPart)+len(sealed) != len(data) {
				t.Fatalf("split does not partition the envelope")
			}
		}
		_, _ = OpenEnvelopeWithKey(data, fuzzKtx)
	})
}

// FuzzOpenAEAD covers the raw AEAD open: arbitrary ciphertext and AAD must
// fail cleanly, never panic.
func FuzzOpenAEAD(f *testing.F) {
	sealed, err := SealAEAD(fuzzKtx, []byte("plaintext"), []byte("aad"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, []byte("aad"))
	f.Add(sealed, []byte("wrong"))
	f.Add(sealed[:AEADOverhead-1], []byte{})
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, ct, aad []byte) {
		if pt, err := OpenAEAD(fuzzKtx, ct, aad); err == nil {
			// GCM is deterministic under a fixed nonce+key: reseal-compare
			// is not possible (random nonce), but a successful open of
			// attacker-controlled bytes must at least carry the tag.
			if len(ct) < AEADOverhead {
				t.Fatalf("opened %d-byte ciphertext below AEAD overhead", len(ct))
			}
			_ = pt
		}
	})
}
