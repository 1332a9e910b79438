package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/kms"
	"confide/internal/metrics"
	"confide/internal/storage"
	"confide/internal/tee"
)

var testSecrets *kms.Secrets

func testEngine(t testing.TB, opts core.Options) *core.Engine {
	t.Helper()
	root, err := tee.NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	if testSecrets == nil {
		testSecrets, err = kms.GenerateSecrets()
		if err != nil {
			t.Fatal(err)
		}
	}
	engine, err := core.NewConfidentialEngine(tee.NewPlatform(root), testSecrets, storage.NewMemStore(), tee.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

var (
	testAddr  = chain.AddressFromBytes([]byte("workload"))
	testOwner = chain.AddressFromBytes([]byte("owner"))
)

// runWorkload deploys src on both VMs and executes one generated call,
// asserting success and identical outputs.
func runWorkload(t *testing.T, src string, gen func(*rand.Rand) (string, [][]byte)) []byte {
	t.Helper()
	var outputs [][]byte
	for _, vm := range []core.VMKind{core.VMCVM, core.VMEVM} {
		engine := testEngine(t, core.AllOptimizations())
		code, err := Compile(src, vm)
		if err != nil {
			t.Fatalf("compile vm=%d: %v", vm, err)
		}
		if err := engine.DeployContract(testAddr, testOwner, vm, code, true, 1); err != nil {
			t.Fatal(err)
		}
		client, err := core.NewClient(engine.EnvelopePublicKey())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		method, args := gen(rng)
		tx, _, err := client.NewConfidentialTx(testAddr, method, args...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(tx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Receipt.Status != chain.ReceiptOK {
			t.Fatalf("vm=%d failed: %s", vm, res.Receipt.Output)
		}
		outputs = append(outputs, res.Receipt.Output)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("VM outputs differ:\n cvm: %q\n evm: %q", outputs[0], outputs[1])
	}
	return outputs[0]
}

func TestStringConcatWorkload(t *testing.T) {
	out := runWorkload(t, StringConcatSrc, StringConcatInput)
	// Output = 10-byte id + 35 joined values; every value is ≥8 bytes.
	if len(out) < 10+35*8 {
		t.Errorf("concat output suspiciously short: %d bytes", len(out))
	}
}

func TestENotesWorkload(t *testing.T) {
	out := runWorkload(t, ENotesSrc, ENotesInput)
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("deposit output = %v", out)
	}
}

func TestCryptoHashWorkload(t *testing.T) {
	out := runWorkload(t, CryptoHashSrc, CryptoHashInput)
	if len(out) != 32 {
		t.Errorf("hash output length = %d, want 32", len(out))
	}
}

func TestJSONParseWorkload(t *testing.T) {
	out := runWorkload(t, JSONParseSrc, JSONParseInput)
	// loan_info (16) + bank_info (16) + borrower (12) + amount (1..7) +
	// asset_id (14) + 8 × attr (10 each).
	if len(out) < 44+1+14+80 || len(out) > 44+7+14+80 {
		t.Errorf("parse output length = %d, want ~139-145", len(out))
	}
}

func TestABSFlatWorkload(t *testing.T) {
	out := runWorkload(t, ABSTransferFlatSrc, ABSFlatInput)
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("transfer output = %v", out)
	}
}

func TestABSJSONWorkload(t *testing.T) {
	out := runWorkload(t, ABSTransferJSONSrc, ABSJSONInput)
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("transfer output = %v", out)
	}
}

func TestABSRejectsInvalidAsset(t *testing.T) {
	engine := testEngine(t, core.AllOptimizations())
	code, _ := Compile(ABSTransferFlatSrc, core.VMCVM)
	engine.DeployContract(testAddr, testOwner, core.VMCVM, code, true, 1)
	client, _ := core.NewClient(engine.EnvelopePublicKey())

	rng := rand.New(rand.NewSource(1))
	var fields [absFlatFields][]byte
	for i := range fields {
		fields[i] = []byte("x")
	}
	fields[1] = []byte("evil-b") // institution not in the allowed set
	fields[2] = []byte("monthly")
	fields[4] = []byte("100")
	tx, _, _ := client.NewConfidentialTx(testAddr, "transfer", EncodeAssetFlat(fields))
	res, err := engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptFailed {
		t.Error("invalid institution should fail validation")
	}
	_ = rng
}

// deploySCF wires the three-contract suite on one engine.
func deploySCF(t testing.TB, engine *core.Engine, vm core.VMKind) (gateway chain.Address) {
	t.Helper()
	gateway = chain.AddressFromBytes([]byte("scf-gateway"))
	manager := chain.AddressFromBytes([]byte("scf-manager"))
	service := chain.AddressFromBytes([]byte("scf-service"))
	for _, c := range []struct {
		addr chain.Address
		src  string
	}{
		{gateway, SCFGatewaySrc}, {manager, SCFManagerSrc}, {service, SCFServiceSrc},
	} {
		code, err := Compile(c.src, vm)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.DeployContract(c.addr, testOwner, vm, code, true, 1); err != nil {
			t.Fatal(err)
		}
	}
	client, err := core.NewClient(engine.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range []struct {
		to   chain.Address
		addr chain.Address
	}{
		{gateway, manager}, {manager, service},
	} {
		tx, _, err := client.NewConfidentialTx(wire.to, "init", wire.addr[:])
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(tx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Receipt.Status != chain.ReceiptOK {
			t.Fatalf("init failed: %s", res.Receipt.Output)
		}
		var batch storage.Batch
		if err := res.AppendWrites(&batch); err != nil {
			t.Fatal(err)
		}
	}
	return gateway
}

func TestSCFTransferMatchesTable1OperationMix(t *testing.T) {
	engine := testEngine(t, core.AllOptimizations())
	gateway := deploySCF(t, engine, core.VMCVM)
	client, _ := core.NewClient(engine.EnvelopePublicKey())

	engine.Profile().Reset()
	rng := rand.New(rand.NewSource(7))
	method, args := SCFTransferInput(rng)
	tx, _, _ := client.NewConfidentialTx(gateway, method, args...)
	res, err := engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("transfer failed: %s", res.Receipt.Output)
	}
	snap := engine.Profile().Snapshot()
	if got := snap[core.OpContractCall].Count; got != 31 {
		t.Errorf("contract calls = %d, want 31 (Table 1)", got)
	}
	if got := snap[core.OpGetStorage].Count; got != 151 {
		t.Errorf("GetStorage = %d, want 151 (Table 1)", got)
	}
	if got := snap[core.OpSetStorage].Count; got != 9 {
		t.Errorf("SetStorage = %d, want 9 (Table 1)", got)
	}
	if got := snap[core.OpTxDecrypt].Count; got != 1 {
		t.Errorf("decryptions = %d, want 1", got)
	}
}

// The registry reads Table 1 too: one transfer moves the process-wide
// confide_core_ops_total series by exactly its operation mix.
func TestSCFTransferMovesTable1Series(t *testing.T) {
	engine := testEngine(t, core.AllOptimizations())
	gateway := deploySCF(t, engine, core.VMCVM)
	client, _ := core.NewClient(engine.EnvelopePublicKey())
	method, args := SCFTransferInput(rand.New(rand.NewSource(7)))
	tx, _, _ := client.NewConfidentialTx(gateway, method, args...)

	before := metrics.Default().Snapshot()
	res, err := engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("transfer failed: %s", res.Receipt.Output)
	}
	after := metrics.Default().Snapshot()
	for op, want := range map[string]uint64{core.OpContractCall: 31, core.OpGetStorage: 151, core.OpSetStorage: 9} {
		series := `confide_core_ops_total{op="` + op + `"}`
		if got := after.Counters[series] - before.Counters[series]; got != want {
			t.Errorf("%s moved by %d, want %d (Table 1)", series, got, want)
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a := MakeABSJSON(rand.New(rand.NewSource(5)), 100)
	b := MakeABSJSON(rand.New(rand.NewSource(5)), 100)
	if !bytes.Equal(a, b) {
		t.Error("generator not deterministic for equal seeds")
	}
	c := MakeABSJSON(rand.New(rand.NewSource(6)), 100)
	if bytes.Equal(a, c) {
		t.Error("generator ignores seed")
	}
}

func TestMakeJSONShape(t *testing.T) {
	doc := MakeJSON(35, rand.New(rand.NewSource(1)))
	if doc[0] != '{' || doc[len(doc)-1] != '}' {
		t.Error("not an object")
	}
	if n := strings.Count(string(doc), ":"); n != 35 {
		t.Errorf("pairs = %d, want 35", n)
	}
}

func TestEncodeAssetFlatLayout(t *testing.T) {
	asset := MakeAssetFlat(rand.New(rand.NewSource(3)), 512)
	nf := int(asset[0]) | int(asset[1])<<8
	if nf != absFlatFields {
		t.Fatalf("field count = %d", nf)
	}
	// Offsets strictly increase.
	prev := -1
	for i := 0; i < nf; i++ {
		off := int(uint32(asset[2+i*4]) | uint32(asset[3+i*4])<<8 | uint32(asset[4+i*4])<<16 | uint32(asset[5+i*4])<<24)
		if off <= prev {
			t.Fatalf("offset %d not increasing", i)
		}
		prev = off
	}
}

func TestSyntheticWorkloadsCompileBothVMs(t *testing.T) {
	for _, w := range SyntheticWorkloads() {
		if _, err := CompileCVM(w.Source); err != nil {
			t.Errorf("%s: CVM compile: %v", w.Name, err)
		}
		if _, err := CompileEVM(w.Source); err != nil {
			t.Errorf("%s: EVM compile: %v", w.Name, err)
		}
	}
}
