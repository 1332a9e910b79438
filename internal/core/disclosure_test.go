package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/crypto"
)

// kvSrc is a key-value contract for the disclosure and state-binding tests:
//
//	put <key> <value>               stores value under key
//	read <key>                      outputs the value under key
//	grant <addr 20>                 grants disclosure/receipt access to an address
//	authorize <addr 20> <digest 32> approves when a grant exists
const kvSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let mlen = u16at(buf);
	let m = buf + 2;
	let argp = m + mlen + 2;
	let a1len = u32at(argp);
	let a1 = argp + 4;
	let a2p = a1 + a1len;
	let c = load8(m);
	if c == 112 { // 'p'ut
		storage_set(a1, a1len, a2p + 4, u32at(a2p));
	}
	if c == 114 { // 'r'ead
		let out = alloc(256);
		let rn = storage_get(a1, a1len, out, 256);
		if rn < 0 { rn = 0; }
		output(out, rn);
	}
	if c == 103 { // 'g'rant
		let one = alloc(4);
		store8(one, 1);
		storage_set(a1, 20, one, 1);
	}
	if c == 97 { // 'a'uthorize
		let tmp = alloc(4);
		let got = storage_get(a1, 20, tmp, 4);
		let res = alloc(4);
		if got == 1 {
			store8(res, 1);
		} else {
			store8(res, 0);
		}
		output(res, 1);
	}
}
`

func deployKV(t *testing.T, e *Engine, addr chain.Address) {
	t.Helper()
	mod, err := ccl.CompileCVM(kvSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployContract(addr, ownerAddr, VMCVM, mod.Encode(), true, 1); err != nil {
		t.Fatal(err)
	}
}

// runKV executes one confidential transaction against kvSrc and commits it.
func runKV(t *testing.T, s *testStack, client *Client, addr chain.Address, method string, args ...[]byte) {
	t.Helper()
	tx, _, err := client.NewConfidentialTx(addr, method, args...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("%s failed: %s", method, res.Receipt.Output)
	}
	commit(t, s, res)
}

func u64be(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// TestDisclosureReceiptEngine exercises Engine.DisclosureReceipt for every
// kind, verifying each receipt offline against the attested pk_tx, then
// every gate that must refuse a request without revealing the value.
func TestDisclosureReceiptEngine(t *testing.T) {
	addr := chain.AddressFromBytes([]byte("kv-disclose"))
	s := newStack(t, AllOptimizations())
	deployKV(t, s.engine, addr)

	client, err := NewClient(s.engine.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	clientAddr := client.Address()
	runKV(t, s, client, addr, "put", []byte("bal"), u64be(5000))
	runKV(t, s, client, addr, "put", []byte("short"), []byte{0x13, 0x88})
	runKV(t, s, client, addr, "grant", clientAddr[:])

	sign := func(req DisclosureRequest) DisclosureRequest {
		t.Helper()
		if err := client.SignDisclosure(&req); err != nil {
			t.Fatal(err)
		}
		return req
	}

	pkTx := s.engine.EnvelopePublicKey()
	reqs := []DisclosureRequest{
		{Contract: addr, Key: []byte("bal"), Kind: KindOpen, Height: 3, SigHeight: 3, Verifier: clientAddr[:]},
		{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, Threshold: 1000, Height: 3, SigHeight: 3},
		{Contract: addr, Key: []byte("bal"), Kind: KindInterval, Lo: 4000, Hi: 6000, Height: 3, SigHeight: 3, Verifier: []byte("auditor")},
	}
	for _, req := range reqs {
		rcpt, err := s.engine.DisclosureReceipt(sign(req))
		if err != nil {
			t.Fatalf("%v: %v", req.Kind, err)
		}
		if err := rcpt.Verify(pkTx); err != nil {
			t.Fatalf("%v: offline verification failed: %v", req.Kind, err)
		}
		// Round-trip through the wire form, as the gateway serves it.
		dec, err := DecodeDisclosureReceipt(rcpt.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", req.Kind, err)
		}
		if err := dec.Verify(pkTx); err != nil {
			t.Fatalf("%v: decoded receipt failed: %v", req.Kind, err)
		}
		if dec.Hash() != rcpt.Hash() {
			t.Fatalf("%v: hash changed across the wire", req.Kind)
		}
		if want := map[Kind]uint64{KindOpen: 5000}[req.Kind]; dec.Value != want {
			t.Fatalf("%v receipt carries value %d, want %d", req.Kind, dec.Value, want)
		}
	}

	// A receipt verified against the wrong pk_tx must fail.
	rcpt, err := s.engine.DisclosureReceipt(sign(reqs[1]))
	if err != nil {
		t.Fatal(err)
	}
	other, _ := crypto.GenerateEnvelopeKey()
	if rcpt.Verify(other.Public()) == nil {
		t.Fatal("receipt verified against a foreign pk_tx")
	}

	stranger, err := NewClient(s.engine.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	ungranted := DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, Height: 3, SigHeight: 3}
	if err := stranger.SignDisclosure(&ungranted); err != nil {
		t.Fatal(err)
	}
	tampered := sign(DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, Threshold: 1000, Height: 3, SigHeight: 3})
	tampered.Threshold = 1
	stale := sign(DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, SigHeight: 3})
	stale.Height = 3 + disclosureSigWindow + 1

	for _, tc := range []struct {
		name string
		req  DisclosureRequest
		want error // nil: any error will do
	}{
		{"unsigned", DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, Height: 3}, nil},
		{"tampered", tampered, nil},
		{"ungranted", ungranted, ErrDisclosureDenied},
		{"stale", stale, nil},
		{"open to another verifier", sign(DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindOpen, Height: 3, SigHeight: 3,
			Verifier: []byte("somebody-else\x00\x00\x00\x00\x00\x00\x00")}), nil},
		{"missing cell", sign(DisclosureRequest{Contract: addr, Key: []byte("nope"), Kind: KindThreshold}), ErrNoDisclosureCell},
		{"threshold unsatisfied", sign(DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindThreshold, Threshold: 10_000}), ErrDisclosureUnsatisfied},
		{"interval unsatisfied", sign(DisclosureRequest{Contract: addr, Key: []byte("bal"), Kind: KindInterval, Lo: 0, Hi: 100}), ErrDisclosureUnsatisfied},
		{"cell not 8 bytes", sign(DisclosureRequest{Contract: addr, Key: []byte("short"), Kind: KindThreshold}), ErrDisclosureNotUint64},
	} {
		_, err := s.engine.DisclosureReceipt(tc.req)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if err != nil && strings.Contains(err.Error(), "5000") {
			t.Errorf("%s: refusal reveals the value: %v", tc.name, err)
		}
	}
}

// testReceipts builds one signed receipt of each kind under sk.
func testReceipts(t testing.TB, sk *crypto.EnvelopeKey) []*DisclosureReceipt {
	t.Helper()
	base := DisclosureReceipt{
		Contract: chain.AddressFromBytes([]byte("kv")),
		Key:      []byte("acct/alice"),
		Height:   77,
		Epoch:    3,
		Verifier: []byte("auditor-1"),
	}
	open, thr, iv := base, base, base
	open.Kind, open.Value = KindOpen, 5000
	thr.Kind, thr.Threshold = KindThreshold, 1000
	iv.Kind, iv.Lo, iv.Hi = KindInterval, 4000, 6000
	out := []*DisclosureReceipt{&open, &thr, &iv}
	for _, r := range out {
		var err error
		if r.Sig, err = sk.SignData(r.SigningBytes()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDisclosureReceipts pins the receipt codec and the offline check:
// every kind round-trips byte for byte and verifies, and a change to any
// signed field, or the wrong key, fails verification.
func TestDisclosureReceipts(t *testing.T) {
	sk, err := crypto.GenerateEnvelopeKey()
	if err != nil {
		t.Fatal(err)
	}
	other, _ := crypto.GenerateEnvelopeKey()
	for _, rc := range testReceipts(t, sk) {
		if err := rc.Verify(sk.Public()); err != nil {
			t.Fatalf("%v receipt rejected: %v", rc.Kind, err)
		}
		dec, err := DecodeDisclosureReceipt(rc.Encode())
		if err != nil {
			t.Fatalf("%v decode: %v", rc.Kind, err)
		}
		if !bytes.Equal(dec.Encode(), rc.Encode()) {
			t.Fatalf("%v encode round-trip mismatch", rc.Kind)
		}
		if rc.Verify(other.Public()) == nil {
			t.Fatalf("%v receipt verified under a foreign key", rc.Kind)
		}
		for name, mutate := range map[string]func(r *DisclosureReceipt){
			"value":     func(r *DisclosureReceipt) { r.Value++ },
			"threshold": func(r *DisclosureReceipt) { r.Threshold++ },
			"interval":  func(r *DisclosureReceipt) { r.Lo, r.Hi = r.Hi, r.Lo },
			"key":       func(r *DisclosureReceipt) { r.Key = []byte("acct/bob") },
			"verifier":  func(r *DisclosureReceipt) { r.Verifier = nil },
			"kind":      func(r *DisclosureReceipt) { r.Kind = KindOpen + KindInterval - r.Kind },
		} {
			bad := *dec
			mutate(&bad)
			if bytes.Equal(bad.SigningBytes(), dec.SigningBytes()) {
				continue // the mutation is a no-op on this kind
			}
			if bad.Verify(sk.Public()) == nil {
				t.Fatalf("%v receipt with altered %s verified", rc.Kind, name)
			}
		}
	}
	for _, bad := range [][]byte{
		nil,
		chain.Encode(chain.List()),
		chain.Encode(chain.List(chain.Uint(2), chain.Bytes(make([]byte, 20)))),
	} {
		if _, err := DecodeDisclosureReceipt(bad); !errors.Is(err, ErrBadDisclosureReceipt) {
			t.Errorf("decode %x: got %v", bad, err)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"open", "threshold", "interval"} {
		k, err := ParseKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	// "range" (0 ≤ v < 2^64) holds for every 8-byte cell; it is no kind.
	for _, s := range []string{"range", "bogus", ""} {
		if _, err := ParseKind(s); err == nil {
			t.Fatalf("kind %q accepted", s)
		}
	}
}

// FuzzDisclosureReceipt feeds arbitrary bytes through the receipt decoder,
// which parses what an untrusted gateway hands the client. Invariants: no
// panic; anything that decodes re-encodes to the identical bytes; and
// nothing verifies under the seeds' key unless it signs exactly what one
// of the seeds signs.
func FuzzDisclosureReceipt(f *testing.F) {
	sk, err := crypto.GenerateEnvelopeKey()
	if err != nil {
		f.Fatal(err)
	}
	seeds := testReceipts(f, sk)
	signed := make(map[string]bool)
	for _, r := range seeds[:2] {
		f.Add(r.Encode())
		signed[string(r.SigningBytes())] = true
	}
	f.Add([]byte{})
	f.Add(chain.Encode(chain.List(chain.Uint(uint64(KindInterval)))))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeDisclosureReceipt(data)
		if err != nil {
			if dec != nil {
				t.Fatal("error with non-nil receipt")
			}
			return
		}
		if !bytes.Equal(dec.Encode(), data) {
			t.Fatal("decoded receipt is not canonical")
		}
		if dec.Verify(sk.Public()) == nil && !signed[string(dec.SigningBytes())] {
			t.Fatal("a receipt nobody signed verified")
		}
	})
}
