package chain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestRLPKnownVectors(t *testing.T) {
	cases := []struct {
		name string
		item Item
		hex  string
	}{
		{"dog", String("dog"), "83646f67"},
		{"empty string", String(""), "80"},
		{"single low byte", Bytes([]byte{0x0f}), "0f"},
		{"0x80 byte needs prefix", Bytes([]byte{0x80}), "8180"},
		{"cat-dog list", List(String("cat"), String("dog")), "c88363617483646f67"},
		{"empty list", List(), "c0"},
		{"nested empties", List(List(), List(List())), "c3c0c1c0"},
		{"set-theoretic three", List(List(), List(List()), List(List(), List(List()))), "c7c0c1c0c3c0c1c0"},
		{"integer 0", Uint(0), "80"},
		{"integer 15", Uint(15), "0f"},
		{"integer 1024", Uint(1024), "820400"},
		{"56-byte string", Bytes(bytes.Repeat([]byte{'a'}, 56)), "b838" + hexRepeat("61", 56)},
	}
	for _, c := range cases {
		got := hex.EncodeToString(Encode(c.item))
		if got != c.hex {
			t.Errorf("%s: encoded %s, want %s", c.name, got, c.hex)
		}
		back, err := Decode(Encode(c.item))
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if !itemEqual(back, c.item) {
			t.Errorf("%s: decode round trip mismatch", c.name)
		}
	}
}

func hexRepeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

func itemEqual(a, b Item) bool {
	if a.IsList != b.IsList {
		return false
	}
	if !a.IsList {
		return bytes.Equal(a.Str, b.Str)
	}
	if len(a.List) != len(b.List) {
		return false
	}
	for i := range a.List {
		if !itemEqual(a.List[i], b.List[i]) {
			return false
		}
	}
	return true
}

func TestRLPRejectsMalformed(t *testing.T) {
	bad := []string{
		"",           // empty
		"8100",       // non-canonical single byte (should be 0x00 alone)
		"b80161",     // long-string form for 1 byte
		"83646f",     // truncated string
		"c883636174", // truncated list payload
		"83646f6767", // trailing bytes
		"b90000",     // length with leading zero
		"f80161",     // non-canonical long list
	}
	for _, h := range bad {
		data, _ := hex.DecodeString(h)
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%s) should fail", h)
		}
	}
}

func TestRLPUintRoundTrip(t *testing.T) {
	f := func(n uint64) bool {
		it, err := Decode(Encode(Uint(n)))
		if err != nil {
			return false
		}
		got, err := it.AsUint()
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLPAsUintRejections(t *testing.T) {
	if _, err := List().AsUint(); err == nil {
		t.Error("list should not decode as uint")
	}
	if _, err := (Item{Str: []byte{0, 1}}).AsUint(); err == nil {
		t.Error("leading zero should be rejected")
	}
	if _, err := (Item{Str: bytes.Repeat([]byte{0xff}, 9)}).AsUint(); err == nil {
		t.Error("9-byte integer should overflow")
	}
}

// randomItem builds a random RLP tree for property testing.
func randomItem(rng *rand.Rand, depth int) Item {
	if depth == 0 || rng.Intn(2) == 0 {
		n := rng.Intn(80)
		b := make([]byte, n)
		rng.Read(b)
		return Bytes(b)
	}
	n := rng.Intn(5)
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(rng, depth-1)
	}
	return List(items...)
}

func TestRLPRandomTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		it := randomItem(rng, 4)
		back, err := Decode(Encode(it))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !itemEqual(it, back) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestRLPLargePayload(t *testing.T) {
	big := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(big)
	back, err := Decode(Encode(Bytes(big)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Str, big) {
		t.Fatal("large payload corrupted")
	}
	// Deep check that reflect agrees too (guards helper bugs).
	if !reflect.DeepEqual(back.Str, big) {
		t.Fatal("reflect mismatch")
	}
}

// referenceEncode is the straightforward two-buffer encoder Encode replaced:
// each list's payload is built in a buffer of its own and copied upward, and
// a long length is prepended a byte at a time. FuzzEncodeMatchesReference
// holds Encode to it byte for byte.
func referenceEncode(it Item) []byte {
	if !it.IsList {
		s := it.Str
		if len(s) == 1 && s[0] < 0x80 {
			return []byte{s[0]}
		}
		return append(referenceLength(len(s), 0x80), s...)
	}
	var payload []byte
	for _, sub := range it.List {
		payload = append(payload, referenceEncode(sub)...)
	}
	return append(referenceLength(len(payload), 0xc0), payload...)
}

func referenceLength(n int, base byte) []byte {
	if n <= 55 {
		return []byte{base + byte(n)}
	}
	var lenBytes []byte
	for m := n; m > 0; m >>= 8 {
		lenBytes = append([]byte{byte(m)}, lenBytes...)
	}
	return append([]byte{base + 55 + byte(len(lenBytes))}, lenBytes...)
}

// itemFromBytes builds an Item tree from fuzz input, one op byte at a time:
// below 0x20 opens a list (up to 16 deep), below 0x40 closes one, and any
// other byte b takes the next b-0x40 input bytes (0–191) as a string.
func itemFromBytes(data []byte) Item {
	stack := [][]Item{nil}
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack[len(stack)-1] = append(stack[len(stack)-1], List(top...))
	}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch {
		case op < 0x20:
			if len(stack) < 16 {
				stack = append(stack, nil)
			}
		case op < 0x40:
			if len(stack) > 1 {
				closeTop()
			}
		default:
			n := min(int(op-0x40), len(data))
			stack[len(stack)-1] = append(stack[len(stack)-1], Bytes(data[:n]))
			data = data[n:]
		}
	}
	for len(stack) > 1 {
		closeTop()
	}
	return List(stack[0]...)
}

// FuzzEncodeMatchesReference holds the one-pass encoder to the two-buffer
// reference on arbitrary trees, and every encoding to a Decode round trip.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x41, 0x7f, 0x40, 0x41, 0x80})                          // one-byte strings either side of 0x80, and an empty one
	f.Add(append([]byte{0x00, 0x77}, bytes.Repeat([]byte{0xaa}, 55)...)) // a 55-byte string in a list
	f.Add(append([]byte{0x00, 0x78}, bytes.Repeat([]byte{0xaa}, 56)...)) // 56 bytes: the long form
	f.Add(bytes.Repeat([]byte{0x00, 0xff}, 300))                         // nested lists past 255 payload bytes
	f.Add([]byte{0x00, 0x00, 0x20, 0x00, 0x20, 0x20})                    // nested empties
	f.Fuzz(func(t *testing.T, data []byte) {
		it := itemFromBytes(data)
		enc, ref := Encode(it), referenceEncode(it)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("Encode = %x, reference = %x", enc, ref)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding does not decode: %v", err)
		}
		if !itemEqual(back, it) {
			t.Fatalf("round trip changed the tree: %x", enc)
		}
	})
}

// TestDecodedStringsAreAppendSafe pins the zero-copy decoder's one guard:
// a decoded string aliases the input but has no spare capacity, so an
// append to it copies rather than overwriting the field after it.
func TestDecodedStringsAreAppendSafe(t *testing.T) {
	enc := Encode(List(String("abc"), Bytes([]byte{0x05}), List(String("nested"), Bytes(bytes.Repeat([]byte{7}, 60))), String("tail")))
	input := append([]byte(nil), enc...)
	it, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(Item)
	walk = func(it Item) {
		if it.IsList {
			for _, sub := range it.List {
				walk(sub)
			}
			return
		}
		if cap(it.Str) != len(it.Str) {
			t.Errorf("decoded %q has cap %d, len %d", it.Str, cap(it.Str), len(it.Str))
		}
		_ = append(it.Str, 0xee, 0xee)
	}
	walk(it)
	if !bytes.Equal(enc, input) {
		t.Errorf("appending to decoded fields changed the input:\n got %x\nwant %x", enc, input)
	}
}

func TestCodecAllocations(t *testing.T) {
	tree := List(Uint(7), String("payload"), List(Bytes(bytes.Repeat([]byte{1}, 300)), List()), Bytes(nil))
	if n := testing.AllocsPerRun(100, func() { Encode(tree) }); n != 1 {
		t.Errorf("Encode of a built tree allocates %v times, want 1", n)
	}
	w := (&Tx{Type: TxTypeConfidential, Payload: bytes.Repeat([]byte{9}, 300)}).Encode()
	decode := testing.AllocsPerRun(100, func() { DecodeTx(w) })
	decodeEncode := testing.AllocsPerRun(100, func() {
		tx, _ := DecodeTx(w)
		tx.Encode()
	})
	if decodeEncode != decode {
		t.Errorf("Encode of a decoded Tx allocates %v times, want 0", decodeEncode-decode)
	}
	tx, err := DecodeTx(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tx.Encode(), w) {
		t.Error("a decoded Tx does not encode to its input")
	}
	if tx.Hash() != sha256.Sum256(w) {
		t.Error("a decoded Tx's hash is not SHA-256 of its input")
	}
}

func TestTxEncodeHashConcurrent(t *testing.T) {
	payload := bytes.Repeat([]byte{3}, 200)
	want := (&Tx{Type: TxTypePublic, Payload: payload}).Encode()
	decoded, err := DecodeTx(append([]byte(nil), want...))
	if err != nil {
		t.Fatal(err)
	}
	constructed := &Tx{Type: TxTypePublic, Payload: payload}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tx := range []*Tx{decoded, constructed} {
				if !bytes.Equal(tx.Encode(), want) || tx.Hash() != sha256.Sum256(want) {
					t.Error("concurrent Encode/Hash disagrees with a fresh encoding")
				}
			}
		}()
	}
	wg.Wait()
}
