package ccle

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// fuzzCipher uses a fixed key so corpus entries that reach the AEAD layer
// stay interesting across runs (a random key would turn every sealed seed
// into garbage on the next process).
func fuzzCipher() *AEADCipher {
	return &AEADCipher{
		Key:     bytes.Repeat([]byte{0x42}, 32),
		Context: []byte("contract:0xabc|owner:0xdef|secver:1"),
	}
}

// TestMapCountCannotInflateDecode pins that a map's claimed entry count does
// not size an allocation beyond what its payload can hold: a few bytes that
// claim a million accounts must fail as truncated without allocating for
// them (a fuzzer-found input spent seconds building such a map).
func TestMapCountCannotInflateDecode(t *testing.T) {
	schema, err := ParseSchema(listing1)
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.AppendUvarint(nil, 1_000_000)
	data := append([]byte{1, 2, 0, byte(len(payload))}, payload...) // one field: account_map
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decode(schema, data, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a map claiming more entries than its payload holds decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
}

// FuzzCodecDecode feeds arbitrary bytes to the CCLE decoder under the
// paper's Listing 1 schema. The decoder must reject malformed input with an
// error, never a panic, and anything it accepts must re-encode without
// error.
func FuzzCodecDecode(f *testing.F) {
	schema, err := ParseSchema(listing1)
	if err != nil {
		f.Fatal(err)
	}
	cipher := fuzzCipher()

	// Seed with a genuine encoding of the demo value tree plus mutations
	// that keep the outer framing valid.
	valid, err := Encode(schema, demoValue(), cipher)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	if len(valid) > 8 {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-3] ^= 0xff
		f.Add(flipped)
	}
	plainOnly, err := Encode(schema, TableVal(map[string]*Value{"owner": Str("x")}), cipher)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plainOnly)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x00, 0x02, 0x00})                                     // one entry whose flag byte is 0x02: no such flag
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // uvarint overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(schema, data, cipher)
		if err != nil {
			return
		}
		if _, err := Encode(schema, v, cipher); err != nil {
			t.Fatalf("accepted value fails to re-encode: %v", err)
		}
	})
}

// FuzzParseSchema hammers the schema parser: arbitrary source must never
// panic, and an accepted schema must re-parse from its own String() form.
func FuzzParseSchema(f *testing.F) {
	f.Add(listing1)
	f.Add(`table T { x: int; } root_type T;`)
	f.Add(`attribute "confidential"; table T { s: string(confidential); } root_type T;`)
	f.Add(`table T { v: [U]; } table U { n: ulong; } root_type T;`)
	f.Add(``)
	f.Add(`table`)
	f.Add(`root_type Missing;`)

	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSchema(src)
		if err != nil {
			return
		}
		if _, err := ParseSchema(s.String()); err != nil {
			t.Fatalf("accepted schema does not re-parse: %v", err)
		}
	})
}
