package keyepoch

import (
	"bytes"
	"errors"
	"testing"
)

func TestEnvelopeHeaderRoundTrip(t *testing.T) {
	for _, e := range []uint64{1, 2, 127, 128, 1 << 20, 1<<63 - 1} {
		env := []byte{0x04, 0xAA, 0xBB} // an envelope proper opens with a SEC1 point
		wrapped := WrapEnvelope(e, env)
		gotE, gotEnv, err := ParseEnvelope(wrapped)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if gotE != e || !bytes.Equal(gotEnv, env) {
			t.Fatalf("epoch %d: got (%d, %x)", e, gotE, gotEnv)
		}
	}
}

func TestRecordTagRoundTrip(t *testing.T) {
	for _, e := range []uint64{1, 300, 1 << 40} {
		sealed := []byte("ciphertext")
		gotE, gotSealed, err := ParseRecord(WrapRecord(e, sealed))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if gotE != e || !bytes.Equal(gotSealed, sealed) {
			t.Fatalf("epoch %d: got (%d, %x)", e, gotE, gotSealed)
		}
	}
}

func TestMalformedHeadersRejected(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{envelopeMagic},       // magic with no epoch
		{envelopeMagic, 0x00}, // epoch 0 forbidden
		{recordMagic},         // record magic, no epoch
		{recordMagic, 0x00},   // record epoch 0
		{0x05, 0x01, 0x02},    // unknown leading byte
		{0x04, 0x01},          // an un-tagged envelope or record (bare SEC1 point)
		append([]byte{envelopeMagic}, bytes.Repeat([]byte{0xFF}, 10)...), // unterminated uvarint
	}
	for _, b := range bad {
		if _, _, err := ParseEnvelope(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("ParseEnvelope(%x) = %v, want ErrBadHeader", b, err)
		}
	}
	for _, b := range bad {
		if _, _, err := ParseRecord(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("ParseRecord(%x) = %v, want ErrBadHeader", b, err)
		}
	}
}

func TestRotationCodec(t *testing.T) {
	r := Rotation{NewEpoch: 7, ActivationHeight: 12345}
	dec, err := DecodeRotation(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != r {
		t.Fatalf("round trip: got %+v want %+v", dec, r)
	}
}

func TestRotationDecodeRejectsInvalid(t *testing.T) {
	bad := [][]byte{
		nil,
		{0x01},
		Rotation{NewEpoch: 0, ActivationHeight: 5}.Encode(), // epoch 0
		Rotation{NewEpoch: 1, ActivationHeight: 5}.Encode(), // provisioning epoch
	}
	for _, b := range bad {
		if _, err := DecodeRotation(b); !errors.Is(err, ErrBadRotation) {
			t.Errorf("DecodeRotation(%x) = %v, want ErrBadRotation", b, err)
		}
	}
}
