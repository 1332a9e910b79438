package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/kms"
	"confide/internal/storage"
	"confide/internal/tee"
)

// counterSrc is the test contract: a tiny key-value service.
//
//	set <bytes>   stores the first argument under key "v"
//	get           outputs the stored value
//	fail          writes then reverts (state must roll back)
//	callget <addr> cross-contract "get" on the 20-byte address argument
const counterSrc = `
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
	let argp = m + mlen + 2;      // skip argc (u16)
	let a1len = u32at(argp);
	let a1 = argp + 4;
	let c = load8(m);
	if c == 115 { // 's'et
		storage_set("v", 1, a1, a1len);
		log("stored", 6);
	}
	if c == 103 { // 'g'et
		let gout = alloc(256);
		let gn = storage_get("v", 1, gout, 256);
		if gn < 0 { gn = 0; }
		output(gout, gn);
	}
	if c == 102 { // 'f'ail after writing
		storage_set("v", 1, "junk", 4);
		fail();
	}
	if c == 99 { // 'c'allget: arg is the callee address
		let cin = "\x03\x00get\x00\x00";
		let cout = alloc(256);
		let cn = call(a1, cin, 7, cout, 256);
		if cn < 0 { cn = 0; }
		output(cout, cn);
	}
	if c == 119 { // 'w'ho: output caller address
		let who = alloc(20);
		caller(who);
		output(who, 20);
	}
}
`

// testStack bundles a confidential engine, its store and platform.
type testStack struct {
	engine  *Engine
	public  *Engine
	store   *storage.MemStore
	root    *tee.RootOfTrust
	secrets *kms.Secrets
}

// sharedSecrets caches one set of engine secrets (the ECIES envelope key pair
// and k_states) across tests.
var sharedSecrets *kms.Secrets

func newStack(t testing.TB, opts Options) *testStack {
	t.Helper()
	root, err := tee.NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	platform := tee.NewPlatform(root)
	if sharedSecrets == nil {
		sharedSecrets, err = kms.GenerateSecrets()
		if err != nil {
			t.Fatal(err)
		}
	}
	store := storage.NewMemStore()
	engine, err := NewConfidentialEngine(platform, sharedSecrets, store, tee.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testStack{
		engine:  engine,
		public:  NewPublicEngine(store, opts),
		store:   store,
		root:    root,
		secrets: sharedSecrets,
	}
}

var (
	counterAddr = chain.AddressFromBytes([]byte("counter-contract"))
	ownerAddr   = chain.AddressFromBytes([]byte("owner"))
)

func deployCounter(t testing.TB, e *Engine, addr chain.Address, vm VMKind, confidential bool) {
	t.Helper()
	var code []byte
	if vm == VMCVM {
		mod, err := ccl.CompileCVM(counterSrc)
		if err != nil {
			t.Fatal(err)
		}
		code = mod.Encode()
	} else {
		var err error
		code, err = ccl.CompileEVM(counterSrc)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeployContract(addr, ownerAddr, vm, code, confidential, 1); err != nil {
		t.Fatal(err)
	}
}

// commit applies an execution result to the stack's store.
func commit(t *testing.T, s *testStack, res *ExecResult) {
	t.Helper()
	var batch storage.Batch
	if err := res.AppendWrites(&batch); err != nil {
		t.Fatal(err)
	}
	if err := s.store.WriteBatch(&batch); err != nil {
		t.Fatal(err)
	}
}

func TestInputCodecRoundTrip(t *testing.T) {
	in := EncodeInput("transfer", []byte("alice"), []byte{0, 1, 2}, nil)
	method, args, err := DecodeInput(in)
	if err != nil {
		t.Fatal(err)
	}
	if method != "transfer" || len(args) != 3 || string(args[0]) != "alice" {
		t.Errorf("decoded %q %q", method, args)
	}
	if len(args[2]) != 0 {
		t.Error("nil arg should round trip as empty")
	}
	for _, bad := range [][]byte{nil, {9}, {5, 0, 'a'}} {
		if _, _, err := DecodeInput(bad); err == nil {
			t.Errorf("DecodeInput(%v) should fail", bad)
		}
	}
}

func TestConfidentialEndToEnd(t *testing.T) {
	for _, vm := range []VMKind{VMCVM, VMEVM} {
		name := map[VMKind]string{VMCVM: "cvm", VMEVM: "evm"}[vm]
		t.Run(name, func(t *testing.T) {
			s := newStack(t, AllOptimizations())
			deployCounter(t, s.engine, counterAddr, vm, true)
			client, err := NewClient(s.engine.EnvelopePublicKey())
			if err != nil {
				t.Fatal(err)
			}

			// set "hello-123"
			tx, ktx, err := client.NewConfidentialTx(counterAddr, "set", []byte("hello-123"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.engine.Execute(tx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Receipt.Status != chain.ReceiptOK {
				t.Fatalf("set failed: %s", res.Receipt.Output)
			}
			commit(t, s, res)

			// The client opens its sealed receipt with k_tx.
			sealed, found, err := ReadReceipt(s.store, res.TxHash)
			if err != nil || !found {
				t.Fatalf("receipt missing: %v", err)
			}
			rpt, err := OpenReceipt(sealed, ktx, res.TxHash)
			if err != nil {
				t.Fatal(err)
			}
			if len(rpt.Logs) != 1 || rpt.Logs[0] != "stored" {
				t.Errorf("receipt logs = %q", rpt.Logs)
			}
			if rpt.From != client.Address() || rpt.To != counterAddr {
				t.Error("receipt addresses wrong")
			}

			// get returns the stored value.
			tx2, _, err := client.NewConfidentialTx(counterAddr, "get")
			if err != nil {
				t.Fatal(err)
			}
			res2, err := s.engine.Execute(tx2)
			if err != nil {
				t.Fatal(err)
			}
			if string(res2.Receipt.Output) != "hello-123" {
				t.Errorf("get output = %q", res2.Receipt.Output)
			}
		})
	}
}

func TestConfidentialStateIsCiphertextAtRest(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	secret := []byte("super-secret-balance-42")
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", secret)
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, res)

	// Scan every stored byte: the plaintext must not appear anywhere — not
	// in state, not in the receipt, not in the code record.
	leaked := false
	s.store.Iterate(nil, func(k, v []byte) bool {
		if bytes.Contains(v, secret) {
			t.Errorf("plaintext found under key %q", k)
			leaked = true
		}
		return true
	})
	if leaked {
		t.Fatal("confidential data leaked to storage")
	}
	// And the raw transaction payload itself is an opaque envelope.
	if bytes.Contains(tx.Payload, secret) {
		t.Error("plaintext visible in the wire transaction")
	}
}

func TestPublicContractStaysPlain(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.public, counterAddr, VMCVM, false)
	client, _ := NewClient(nil)
	tx, err := client.NewPublicTx(counterAddr, "set", []byte("public-data"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.public.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, res)
	found := false
	s.store.Iterate(nil, func(k, v []byte) bool {
		if bytes.Contains(v, []byte("public-data")) {
			found = true
		}
		return true
	})
	if !found {
		t.Error("public state should be readable in the store")
	}
}

func TestFailedTxRollsBackState(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("committed"))
	res, _ := s.engine.Execute(tx)
	commit(t, s, res)

	failTx, _, _ := client.NewConfidentialTx(counterAddr, "fail")
	failRes, err := s.engine.Execute(failTx)
	if err != nil {
		t.Fatal(err)
	}
	if failRes.Receipt.Status != chain.ReceiptFailed {
		t.Fatal("fail method should produce a failed receipt")
	}
	commit(t, s, failRes)
	if len(failRes.WriteKeys) != 0 {
		t.Error("failed tx must not expose writes")
	}

	getTx, _, _ := client.NewConfidentialTx(counterAddr, "get")
	getRes, _ := s.engine.Execute(getTx)
	if string(getRes.Receipt.Output) != "committed" {
		t.Errorf("state after failed tx = %q, want %q", getRes.Receipt.Output, "committed")
	}
}

func TestCrossContractCall(t *testing.T) {
	s := newStack(t, AllOptimizations())
	calleeAddr := chain.AddressFromBytes([]byte("callee"))
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	deployCounter(t, s.engine, calleeAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	// Store in the callee, then read it via a cross-contract call from the
	// gateway contract.
	tx1, _, _ := client.NewConfidentialTx(calleeAddr, "set", []byte("nested-value"))
	res1, _ := s.engine.Execute(tx1)
	commit(t, s, res1)

	tx2, _, _ := client.NewConfidentialTx(counterAddr, "callget", calleeAddr[:])
	res2, err := s.engine.Execute(tx2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("callget failed: %s", res2.Receipt.Output)
	}
	if string(res2.Receipt.Output) != "nested-value" {
		t.Errorf("cross-call output = %q", res2.Receipt.Output)
	}
}

func TestCallerVisibleToContract(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "who")
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	addr := client.Address()
	if !bytes.Equal(res.Receipt.Output, addr[:]) {
		t.Errorf("caller = %x, want %x", res.Receipt.Output, addr[:])
	}
}

func TestPublicEngineRejectsConfidentialTx(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "get")
	if _, err := s.public.Execute(tx); err == nil {
		t.Error("public engine must reject TYPE=1 transactions")
	}
}

func TestPublicTxCannotReachConfidentialContract(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(nil)
	tx, _ := client.NewPublicTx(counterAddr, "get")
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptFailed {
		t.Error("public call into a confidential contract must fail")
	}
}

func TestTamperedEnvelopeRejected(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "get")
	tx.Payload[len(tx.Payload)-1] ^= 1
	if _, err := s.engine.Execute(tx); err == nil {
		t.Error("tampered envelope must not execute")
	}
}

func TestBadSignatureInsideEnvelopeRejected(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	// Forge: build a raw tx, corrupt the signature, seal it ourselves.
	raw, err := client.signedRaw(counterAddr, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw.Signature[4] ^= 0xff
	ktx := make([]byte, 32)
	env, err := sealForTest(s.engine.EnvelopePublicKey(), ktx, raw.Encode())
	if err != nil {
		t.Fatal(err)
	}
	tx := &chain.Tx{Type: chain.TxTypeConfidential, Payload: env}
	if _, err := s.engine.Execute(tx); err == nil {
		t.Error("forged signature must be rejected inside the enclave")
	}
}

func TestCrossContractSwapDetected(t *testing.T) {
	// A malicious host swaps a state ciphertext with one from a different
	// contract context (same k_states). AAD binding must catch it.
	s := newStack(t, AllOptimizations())
	otherAddr := chain.AddressFromBytes([]byte("other")) // different identity
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	deployCounter(t, s.engine, otherAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	t1, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("A-value"))
	r1, _ := s.engine.Execute(t1)
	commit(t, s, r1)
	t2, _, _ := client.NewConfidentialTx(otherAddr, "set", []byte("B-value"))
	r2, _ := s.engine.Execute(t2)
	commit(t, s, r2)

	// Host-level swap: copy other's ciphertext under counter's key.
	stolen, found, _ := s.store.Get(stateKey(otherAddr, []byte("v")))
	if !found {
		t.Fatal("setup failed")
	}
	s.store.Put(stateKey(counterAddr, []byte("v")), stolen)
	s.engine.sdm.InvalidateCache()

	getTx, _, _ := client.NewConfidentialTx(counterAddr, "get")
	res, err := s.engine.Execute(getTx)
	if err == nil && res.Receipt.Status == chain.ReceiptOK {
		t.Error("cross-context ciphertext swap went undetected")
	}
}

// TestSealedValueMovedToAnotherKeyDetected: inside one confidential
// contract, a host copies key A's sealed bytes onto key B. The record is
// bound to its full store key, so reading B fails the AEAD check instead of
// returning A's value.
func TestSealedValueMovedToAnotherKeyDetected(t *testing.T) {
	s := newStack(t, AllOptimizations())
	addr := chain.AddressFromBytes([]byte("kv-moved"))
	deployKV(t, s.engine, addr)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	runKV(t, s, client, addr, "put", []byte("alice"), u64be(5000))
	runKV(t, s, client, addr, "put", []byte("bob"), u64be(7))

	moved, found, _ := s.store.Get(stateKey(addr, []byte("alice")))
	if !found {
		t.Fatal("setup failed")
	}
	s.store.Put(stateKey(addr, []byte("bob")), moved)
	s.engine.sdm.InvalidateCache()

	read, _, _ := client.NewConfidentialTx(addr, "read", []byte("bob"))
	res, err := s.engine.Execute(read)
	if err == nil {
		if res.Receipt.Status == chain.ReceiptOK {
			t.Fatalf("moved ciphertext read back as %x", res.Receipt.Output)
		}
		err = errors.New(string(res.Receipt.Output))
	}
	if !strings.Contains(err.Error(), "state integrity violation") {
		t.Fatalf("got %v, want a state integrity violation", err)
	}
}

// TestEmptyValueReadsSameWarmAndCold pins that a value stored empty is
// present, whether the read is served from the SDM cache the commit filled,
// from the store after the cache is dropped, or from the cache that cold
// read filled: a replica restarted cold must answer what a warm one does.
func TestEmptyValueReadsSameWarmAndCold(t *testing.T) {
	for _, confidential := range []bool{false, true} {
		s := newStack(t, AllOptimizations())
		engine := s.public
		if confidential {
			engine = s.engine
		}
		deployCounter(t, engine, counterAddr, VMCVM, confidential)
		client, _ := NewClient(s.engine.EnvelopePublicKey())
		var tx *chain.Tx
		if confidential {
			tx, _, _ = client.NewConfidentialTx(counterAddr, "set", []byte{})
		} else {
			tx, _ = client.NewPublicTx(counterAddr, "set", []byte{})
		}
		res, err := engine.Execute(tx)
		if err != nil || res.Receipt.Status != chain.ReceiptOK {
			t.Fatalf("confidential=%v: set \"\": %v", confidential, err)
		}
		commit(t, s, res)
		sk := stateKey(counterAddr, []byte("v"))
		for _, read := range []string{"warm", "cold", "re-warmed"} {
			if read == "cold" {
				engine.sdm.InvalidateCache()
			}
			v, found, err := engine.sdm.load(sk, confidential)
			if err != nil || !found || len(v) != 0 {
				t.Errorf("confidential=%v, %s read: found=%v len=%d err=%v, want found=true len 0",
					confidential, read, found, len(v), err)
			}
		}
	}
}

func TestDeployValidation(t *testing.T) {
	s := newStack(t, AllOptimizations())
	if err := s.engine.DeployContract(counterAddr, ownerAddr, VMCVM, []byte("garbage"), true, 1); err == nil {
		t.Error("garbage module should not deploy")
	}
	if err := s.public.DeployContract(counterAddr, ownerAddr, VMCVM, []byte("garbage"), true, 1); err == nil {
		t.Error("public engine cannot host confidential contracts")
	}
	clientTx := &chain.Tx{Type: 7, Payload: nil}
	if _, err := s.engine.Execute(clientTx); err == nil {
		t.Error("unknown tx type should fail")
	}
}

func TestMissingContract(t *testing.T) {
	s := newStack(t, AllOptimizations())
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(chain.AddressFromBytes([]byte("ghost")), "get")
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt.Status != chain.ReceiptFailed {
		t.Error("call to missing contract should fail the receipt")
	}
	if !strings.Contains(string(res.Receipt.Output), "no contract") {
		t.Errorf("receipt output = %q", res.Receipt.Output)
	}
}

func TestAttestationBindspkTx(t *testing.T) {
	s := newStack(t, AllOptimizations())
	report, err := s.engine.Attest()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := NewClient(nil)
	measurement := s.engine.Enclave().Measurement()
	if err := client.VerifyEngine(report, s.root.Verifier(), measurement, s.engine.EnvelopePublicKey()); err != nil {
		t.Fatalf("honest engine rejected: %v", err)
	}
	// MITM offers its own pk_tx with the honest report.
	mitm, _ := kms.GenerateSecrets()
	client2, _ := NewClient(nil)
	if err := client2.VerifyEngine(report, s.root.Verifier(), measurement, mitm.Envelope.Public()); err == nil {
		t.Error("substituted pk_tx accepted — MITM possible")
	}
}

func TestPreVerificationPipeline(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	var txs []*chain.Tx
	for i := 0; i < 5; i++ {
		tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte{byte(i)})
		txs = append(txs, tx)
	}
	// One corrupted transaction in the batch is filtered out.
	bad, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("bad"))
	bad.Payload[10] ^= 0xff
	txs = append(txs, bad)

	valid := s.engine.PreVerifyBatch(txs)
	if len(valid) != 5 {
		t.Fatalf("valid = %d, want 5", len(valid))
	}
	if s.engine.PreVerifiedCount() != 5 {
		t.Fatalf("cached = %d, want 5", s.engine.PreVerifiedCount())
	}
	// Execution uses the cache entries but keeps them (a transaction may
	// re-execute within a block); the node drops them at commit.
	var hashes []chain.Hash
	for _, tx := range valid {
		if _, err := s.engine.Execute(tx); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, tx.Hash())
	}
	if s.engine.PreVerifiedCount() != 5 {
		t.Errorf("cached = %d, want 5 (entries survive execution)", s.engine.PreVerifiedCount())
	}
	s.engine.DropPreVerified(hashes)
	if s.engine.PreVerifiedCount() != 0 {
		t.Error("DropPreVerified should clear consumed entries")
	}
	// A cache miss still executes correctly (the C2-miss path).
	tx, _, _ := client.NewConfidentialTx(counterAddr, "get")
	if _, err := s.engine.Execute(tx); err != nil {
		t.Fatal(err)
	}
}

func TestPreVerifySavesDecryptionWork(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "get")

	// Execute with pre-verification: decryption happens once (in
	// pre-verify, the ECIES private-key open) and the execution path takes
	// the symmetric branch.
	s.engine.Profile().Reset()
	s.engine.PreVerifyBatch([]*chain.Tx{tx})
	preSnap := s.engine.Profile().Snapshot()
	preDecrypt := preSnap[OpTxDecrypt].Duration

	s.engine.Profile().Reset()
	if _, err := s.engine.Execute(tx); err != nil {
		t.Fatal(err)
	}
	execSnap := s.engine.Profile().Snapshot()
	execDecrypt := execSnap[OpTxDecrypt].Duration
	if execDecrypt*2 >= preDecrypt {
		t.Errorf("cache-hit decrypt (%v) should be far cheaper than the ECIES open (%v)", execDecrypt, preDecrypt)
	}
	if execSnap[OpTxVerify].Count != 0 {
		t.Error("signature must not be re-verified on a cache hit")
	}
}

func TestProfileTable(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("x"))
	if _, err := s.engine.Execute(tx); err != nil {
		t.Fatal(err)
	}
	table := s.engine.Profile().Table()
	for _, want := range []string{"Contract Call", "SetStorage", "Ratio"} {
		if !strings.Contains(table, want) {
			t.Errorf("profile table missing %q:\n%s", want, table)
		}
	}
}

func TestEnclaveCostsAccrue(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("x"))
	if _, err := s.engine.Execute(tx); err != nil {
		t.Fatal(err)
	}
	st := s.engine.Enclave().Stats()
	if st.Ecalls == 0 {
		t.Error("confidential execution should enter the enclave")
	}
	if st.Ocalls == 0 {
		t.Error("storage access should leave the enclave")
	}
}
