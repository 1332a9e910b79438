package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

// testEnvelopeKey is generated once; the tests only need a valid P-256 key
// pair.
var testEnvelopeKey = mustEnvelopeKey()

func mustEnvelopeKey() *EnvelopeKey {
	k, err := GenerateEnvelopeKey()
	if err != nil {
		panic(err)
	}
	return k
}

func TestEnvelopeRoundTrip(t *testing.T) {
	ktx, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("transfer 100 units from A to B")
	env, err := SealEnvelope(testEnvelopeKey.Public(), ktx, payload)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotPayload, err := testEnvelopeKey.OpenEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotKey, ktx) {
		t.Error("recovered k_tx differs")
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("recovered payload differs")
	}
}

func TestEnvelopeSymmetricFastPath(t *testing.T) {
	ktx, _ := RandomKey()
	payload := []byte("cached-key decryption path")
	env, err := SealEnvelope(testEnvelopeKey.Public(), ktx, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenEnvelopeWithKey(env, ktx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("fast-path payload differs")
	}
}

func TestEnvelopeWrongKeyFails(t *testing.T) {
	ktx, _ := RandomKey()
	env, err := SealEnvelope(testEnvelopeKey.Public(), ktx, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateEnvelopeKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.OpenEnvelope(env); err == nil {
		t.Error("opening with the wrong sk_tx should fail")
	}
	wrongSym, _ := RandomKey()
	if _, err := OpenEnvelopeWithKey(env, wrongSym); err == nil {
		t.Error("opening payload with the wrong k_tx should fail")
	}
}

func TestEnvelopeTamperDetected(t *testing.T) {
	ktx, _ := RandomKey()
	env, err := SealEnvelope(testEnvelopeKey.Public(), ktx, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)-1] ^= 0xff
	if _, _, err := testEnvelopeKey.OpenEnvelope(env); err == nil {
		t.Error("tampered envelope should not open")
	}
}

func TestEnvelopeMalformed(t *testing.T) {
	for _, env := range [][]byte{nil, {0x01}, {0xff, 0xff, 0x00}} {
		if _, _, err := SplitEnvelope(env); err == nil {
			t.Errorf("SplitEnvelope(%x) should fail", env)
		}
	}
	if _, _, err := testEnvelopeKey.OpenEnvelope([]byte{0x00}); err == nil {
		t.Error("truncated envelope should not open")
	}
}

func TestEnvelopeKeyMarshalRoundTrip(t *testing.T) {
	der := testEnvelopeKey.Marshal()
	restored, err := UnmarshalEnvelopeKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.Public(), testEnvelopeKey.Public()) {
		t.Error("unmarshaled key has different public half")
	}
	if restored.Fingerprint() != testEnvelopeKey.Fingerprint() {
		t.Error("fingerprint mismatch after round trip")
	}
}

func TestFingerprintMatchesPublic(t *testing.T) {
	if PublicFingerprint(testEnvelopeKey.Public()) != testEnvelopeKey.Fingerprint() {
		t.Error("client-side and enclave-side fingerprints disagree")
	}
}

func TestSealEnvelopeRejectsBadKeySize(t *testing.T) {
	if _, err := SealEnvelope(testEnvelopeKey.Public(), []byte("short"), []byte("p")); err == nil {
		t.Error("short k_tx should be rejected")
	}
}

func TestEnvelopePayloadRoundTripProperty(t *testing.T) {
	ktx, _ := RandomKey()
	f := func(payload []byte) bool {
		env, err := SealEnvelope(testEnvelopeKey.Public(), ktx, payload)
		if err != nil {
			return false
		}
		got, err := OpenEnvelopeWithKey(env, ktx)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
