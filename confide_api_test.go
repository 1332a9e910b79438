package confide_test

import (
	"testing"
	"time"

	"confide"
)

// The root package is a facade; this test exercises a downstream user's
// complete happy path through the public API alone.
func TestPublicAPIEndToEnd(t *testing.T) {
	net, err := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	defer net.StartDriver(0)()

	const src = `
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let mlen = load8(buf) + (load8(buf + 1) << 8);
	let a0 = buf + 2 + mlen + 2;
	let alen = load8(a0) + (load8(a0+1) << 8) + (load8(a0+2) << 16) + (load8(a0+3) << 24);
	storage_set("v", 1, a0 + 4, alen);
	output(a0 + 4, alen);
}`
	addr := confide.AddressFromBytes([]byte("api-test"))
	owner := confide.AddressFromBytes([]byte("owner"))
	code, err := confide.CompileContract(src, confide.VMCVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.DeployEverywhere(addr, owner, confide.VMCVM, code, true, 1); err != nil {
		t.Fatal(err)
	}
	client, err := confide.NewClient(net.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	tx, ktx, err := client.NewConfidentialTx(addr, "put", []byte("via public api"))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if err := net.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sealed, found, err := net.Nodes[1].StoredReceipt(tx.Hash())
	if err != nil || !found {
		t.Fatalf("receipt: found=%v err=%v", found, err)
	}
	rpt, err := confide.OpenReceipt(sealed, ktx, tx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Status != confide.ReceiptOK || string(rpt.Output) != "via public api" {
		t.Fatalf("receipt = %d %q", rpt.Status, rpt.Output)
	}
}

func TestPublicAPICCLe(t *testing.T) {
	schema, err := confide.ParseSchema(`
attribute "confidential";
table Record {
  open: string;
  hidden: string(confidential);
}
root_type Record;`)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32)
	cipher := &confide.AEADCipher{Key: key, Context: []byte("ctx")}
	v := confide.TableVal(map[string]*confide.Value{
		"open":   confide.Str("public part"),
		"hidden": confide.Str("secret part"),
	})
	wire, err := confide.EncodeValue(schema, v, cipher)
	if err != nil {
		t.Fatal(err)
	}
	// With the key: everything.
	full, err := confide.DecodeValue(schema, wire, cipher)
	if err != nil {
		t.Fatal(err)
	}
	if string(full.Fields["hidden"].Str) != "secret part" {
		t.Error("owner view broken")
	}
	// Without: redaction.
	public, err := confide.DecodeValue(schema, wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !confide.IsRedacted(public.Fields["hidden"]) {
		t.Error("hidden field leaked")
	}
	if confide.IsRedacted(public.Fields["open"]) {
		t.Error("open field over-redacted")
	}
}

func TestPublicAPIEncodeInput(t *testing.T) {
	in := confide.EncodeInput("m", []byte("a"))
	if len(in) == 0 {
		t.Fatal("empty input encoding")
	}
	if confide.AllOptimizations().CodeCache != true {
		t.Error("AllOptimizations should enable the code cache")
	}
	if _, err := confide.CompileContract("fn invoke() {}", confide.VMEVM); err != nil {
		t.Errorf("EVM compile through facade: %v", err)
	}
	if _, err := confide.CompileContract("not ccl", confide.VMCVM); err == nil {
		t.Error("bad source should not compile")
	}
}
