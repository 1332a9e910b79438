package core

import (
	"bytes"
	"errors"
	"testing"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/keyepoch"
)

// TestRotationOldAndNewEnvelopesInsideWindow: after one rotation, envelopes
// sealed to the previous epoch's pk_tx still execute (window = 1) alongside
// envelopes sealed to the new key.
func TestRotationOldAndNewEnvelopesInsideWindow(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)

	oldEpoch, oldPk := s.engine.EnvelopeKeyInfo()
	if oldEpoch != 1 {
		t.Fatalf("fresh engine epoch = %d, want 1", oldEpoch)
	}
	oldClient, err := NewClient(append([]byte(nil), oldPk...))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	newEpoch, newPk := s.engine.EnvelopeKeyInfo()
	if newEpoch != 2 {
		t.Fatalf("epoch after rotation = %d, want 2", newEpoch)
	}
	if bytes.Equal(oldPk, newPk) {
		t.Fatal("rotation left pk_tx unchanged")
	}

	// Old-epoch client: sealed to epoch 1, still accepted.
	tx, _, err := oldClient.NewConfidentialTx(counterAddr, "set", []byte("old-epoch"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatalf("in-window envelope rejected: %v", err)
	}
	if res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("old-epoch tx failed: %s", res.Receipt.Output)
	}
	commit(t, s, res)

	// New-epoch client reads the value the old-epoch client wrote.
	newClient, _ := NewClient(nil)
	newClient.SetEnvelopeKey(newEpoch, newPk)
	get, _, _ := newClient.NewConfidentialTx(counterAddr, "get")
	getRes, err := s.engine.Execute(get)
	if err != nil {
		t.Fatal(err)
	}
	if string(getRes.Receipt.Output) != "old-epoch" {
		t.Errorf("cross-epoch read = %q", getRes.Receipt.Output)
	}
}

// TestStaleEpochRejectedDeterministically: an envelope more than Window
// epochs behind the current one fails with ErrStaleEpoch — before any
// decryption, from public header bytes.
func TestStaleEpochRejectedDeterministically(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	staleClient, _ := NewClient(s.engine.EnvelopePublicKey()) // epoch 1

	// Two rotations with window 1: epoch 1 falls out of the window.
	for i := 0; i < 2; i++ {
		if _, err := s.engine.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _, _ := staleClient.NewConfidentialTx(counterAddr, "set", []byte("too-late"))
	if _, err := s.engine.Execute(tx); !errors.Is(err, keyepoch.ErrStaleEpoch) {
		t.Fatalf("stale envelope: got %v, want ErrStaleEpoch", err)
	}
	// Pre-verification drops it the same way.
	if valid := s.engine.PreVerifyBatch([]*chain.Tx{tx}); len(valid) != 0 {
		t.Fatal("pre-verification admitted a stale envelope")
	}
}

// TestWiderWindowKeepsOlderEpochsAlive: window 3 accepts three predecessors.
func TestWiderWindowKeepsOlderEpochsAlive(t *testing.T) {
	opts := AllOptimizations()
	opts.EpochWindow = 3
	s := newStack(t, opts)
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	c1, _ := NewClient(s.engine.EnvelopePublicKey())

	for i := 0; i < 3; i++ {
		if _, err := s.engine.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _, _ := c1.NewConfidentialTx(counterAddr, "set", []byte("w3"))
	res, err := s.engine.Execute(tx)
	if err != nil || res.Receipt.Status != chain.ReceiptOK {
		t.Fatalf("epoch-1 envelope at window 3 rejected: %v", err)
	}
	// One more rotation pushes epoch 1 out.
	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	tx2, _, _ := c1.NewConfidentialTx(counterAddr, "get")
	if _, err := s.engine.Execute(tx2); !errors.Is(err, keyepoch.ErrStaleEpoch) {
		t.Fatalf("beyond-window envelope: got %v", err)
	}
}

// TestResealSweepDrainsOldEpochs: records written under epoch 1 are
// re-sealed under epoch 2 by the sweep, values survive byte-for-byte, and
// once drained the retired epoch zeroizes.
func TestResealSweepDrainsOldEpochs(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("durable"))
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, res)

	// Everything currently on disk is epoch-1 sealed (code records carry
	// their tag inside the encoded ContractRecord; the sweep's Done signal
	// covers those — here we watch the state namespace directly).
	countEpoch := func(want uint64) int {
		n := 0
		s.store.Iterate([]byte("st/"), func(k, v []byte) bool {
			if e, _, err := keyepoch.ParseRecord(v); err == nil && e == want {
				n++
			}
			return true
		})
		return n
	}
	if countEpoch(1) == 0 {
		t.Fatal("setup: no epoch-1 state records found")
	}

	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if !s.engine.StaleEpochsRetained() {
		t.Fatal("rotation should leave epoch 1 retained until drained")
	}

	// Tiny budget first: the sweep reports leftover work.
	st, err := s.engine.ResealSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resealed != 1 || st.Done {
		t.Fatalf("budget-1 sweep: %+v", st)
	}
	// Unbounded-enough budget finishes the drain.
	st, err = s.engine.ResealSweep(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Stale != 0 {
		t.Fatalf("full sweep did not drain: %+v", st)
	}
	if countEpoch(1) != 0 {
		t.Fatal("epoch-1 records survived the sweep")
	}
	if countEpoch(2) == 0 {
		t.Fatal("sweep produced no epoch-2 records")
	}

	// Epoch 1 is drained but still inside the acceptance window (window 1,
	// current 2): its in-flight envelopes must keep opening, so zeroize is a
	// no-op here.
	if n := s.engine.ZeroizeDrainedEpochs(); n != 0 {
		t.Fatalf("in-window epoch zeroized (%d)", n)
	}
	// One more rotation pushes epoch 1 out of the window; after the drain
	// its keys can go.
	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if st, err := s.engine.ResealSweep(1 << 20); err != nil || !st.Done {
		t.Fatalf("second drain: %+v, %v", st, err)
	}
	if n := s.engine.ZeroizeDrainedEpochs(); n != 1 {
		t.Fatalf("zeroized %d epochs, want 1", n)
	}
	// ...and the data is still readable under the new epoch.
	newEpoch, newPk := s.engine.EnvelopeKeyInfo()
	c2, _ := NewClient(nil)
	c2.SetEnvelopeKey(newEpoch, newPk)
	get, _, _ := c2.NewConfidentialTx(counterAddr, "get")
	getRes, err := s.engine.Execute(get)
	if err != nil {
		t.Fatal(err)
	}
	if string(getRes.Receipt.Output) != "durable" {
		t.Errorf("post-zeroize read = %q", getRes.Receipt.Output)
	}

	// Repeat sweeps are cheap no-ops.
	st, err = s.engine.ResealSweep(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Resealed != 0 {
		t.Fatalf("idle sweep did work: %+v", st)
	}
}

// TestLazyResealOnWrite: a write after rotation seals under the new epoch
// without waiting for the sweep.
func TestLazyResealOnWrite(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())

	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	// Old-epoch envelope (in window), but the WRITE must land under epoch 2.
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("fresh"))
	res, err := s.engine.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, res)

	found := false
	s.store.Iterate([]byte("st/"), func(k, v []byte) bool {
		e, _, err := keyepoch.ParseRecord(v)
		if err != nil {
			t.Errorf("untagged state record %q", k)
			return true
		}
		if e != 2 {
			t.Errorf("state record %q sealed under epoch %d, want 2", k, e)
		}
		found = true
		return true
	})
	if !found {
		t.Fatal("no state records written")
	}
}

// TestCheckpointMACKeyVariesByEpoch: the checkpoint MAC key is epoch-scoped
// and forward-derivable (a lagging verifier can check a newer manifest).
func TestCheckpointMACKeyVariesByEpoch(t *testing.T) {
	s := newStack(t, AllOptimizations())
	k1 := s.engine.CheckpointMACKeyFor(1)
	k3 := s.engine.CheckpointMACKeyFor(3) // forward derivation, ring still at 1
	if k1 == nil || k3 == nil {
		t.Fatal("derivable epochs returned nil keys")
	}
	if bytes.Equal(k1, k3) {
		t.Fatal("MAC key must differ across epochs")
	}
	if s.engine.CurrentEpoch() != 1 {
		t.Fatal("forward MAC derivation advanced the engine")
	}
	// Engine that actually reaches epoch 3 derives the same key.
	if err := s.engine.AdvanceEpochTo(3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k3, s.engine.CheckpointMACKeyFor(3)) {
		t.Fatal("forward-derived MAC key differs from installed one")
	}
	if s.engine.CheckpointMACKeyFor(0) != nil {
		t.Fatal("epoch 0 must have no MAC key")
	}
}

// TestPublicEngineHasNoEpochs: the epoch surface degrades cleanly on the
// public engine.
func TestPublicEngineHasNoEpochs(t *testing.T) {
	s := newStack(t, AllOptimizations())
	if got := s.public.CurrentEpoch(); got != 0 {
		t.Fatalf("public engine epoch = %d", got)
	}
	if _, err := s.public.AdvanceEpoch(); err == nil {
		t.Fatal("public engine advanced an epoch")
	}
	if err := s.public.AdvanceEpochTo(1); err != nil {
		t.Fatalf("no-op adopt on public engine: %v", err)
	}
	st, err := s.public.ResealSweep(100)
	if err != nil || !st.Done {
		t.Fatalf("public engine sweep: %+v, %v", st, err)
	}
}

// TestAccessAfterRotationUsesRetainedEpoch: receipt-access requests for
// transactions sealed under a prior (retained) epoch still open — access is
// not a consensus path and skips the window check — while a zeroized epoch's
// envelopes are gone for good (forward secrecy).
func TestAccessAfterRotationUsesRetainedEpoch(t *testing.T) {
	s, owner, tx := accessFixture(t) // commits an epoch-1 confidential tx
	auditor, _ := NewClient(nil)
	auditorKey, err := crypto.GenerateEnvelopeKey()
	if err != nil {
		t.Fatal(err)
	}
	grantTo(t, s, owner, auditor.Address())

	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	req := AccessRequest{
		OrigTx:       tx, // epoch-1 envelope, epoch now 2
		Requester:    auditor.Address(),
		RequesterPub: auditorKey.Public(),
	}
	grant, err := s.engine.HandleAccessRequest(req)
	if err != nil {
		t.Fatalf("retained-epoch access rejected: %v", err)
	}
	rpt, err := OpenGrantedReceipt(auditorKey, grant.SealedReceipt)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Status != chain.ReceiptOK {
		t.Errorf("granted receipt status = %d", rpt.Status)
	}

	// Advance past the window, drain, zeroize: epoch 1 becomes unopenable.
	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.engine.ResealSweep(1 << 20); err != nil {
		t.Fatal(err)
	}
	if s.engine.ZeroizeDrainedEpochs() == 0 {
		t.Fatal("no epochs zeroized after drain")
	}
	if _, err := s.engine.HandleAccessRequest(req); err == nil {
		t.Fatal("zeroized epoch's envelope opened — forward secrecy broken")
	}
}

func TestEngineEnclaveChargesResealOcall(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("x"))
	res, _ := s.engine.Execute(tx)
	commit(t, s, res)
	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	before := s.engine.Enclave().Stats().Ocalls
	if _, err := s.engine.ResealSweep(1 << 20); err != nil {
		t.Fatal(err)
	}
	if s.engine.Enclave().Stats().Ocalls <= before {
		t.Error("re-seal sweep should charge enclave boundary crossings")
	}
}

// TestWalkSealedIsTheOneWalk: the reseal sweep and the audit are visitors
// over SDM.walkSealed, so they see exactly the same records — every contract's
// code record, and the state of the confidential ones only. A public
// contract's plaintext state and a foreign key under st/ whose address
// segment is no contract's (here: 40 bytes that are not hex) are not visited,
// and stay byte-for-byte what they were.
func TestWalkSealedIsTheOneWalk(t *testing.T) {
	s := newStack(t, AllOptimizations())
	secondAddr := chain.AddressFromBytes([]byte("second-confidential"))
	publicAddr := chain.AddressFromBytes([]byte("public-contract"))
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	deployCounter(t, s.engine, secondAddr, VMCVM, true)
	deployCounter(t, s.public, publicAddr, VMCVM, false)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	for _, addr := range []chain.Address{counterAddr, secondAddr} {
		tx, _, _ := client.NewConfidentialTx(addr, "set", []byte("sealed"))
		res, err := s.engine.Execute(tx)
		if err != nil {
			t.Fatal(err)
		}
		commit(t, s, res)
	}
	tx, _ := client.NewPublicTx(publicAddr, "set", []byte("plain"))
	res, err := s.public.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, res)
	foreign := []byte("st/this-segment-has-forty-bytes-and-no-hex!/key")
	if err := s.store.Put(foreign, []byte("not a sealed record")); err != nil {
		t.Fatal(err)
	}
	publicState := stateKey(publicAddr, []byte("v"))
	untouched := map[string][]byte{}
	for _, k := range [][]byte{foreign, publicState} {
		v, found, _ := s.store.Get(k)
		if !found {
			t.Fatalf("setup: %q missing", k)
		}
		untouched[string(k)] = v
	}

	var codes, states []string
	err = s.engine.sdm.walkSealed(
		func(key []byte, addr chain.Address, rec *ContractRecord) error {
			if string(key) != string(codeKey(addr)) {
				t.Errorf("code visitor got key %q for address %s", key, addr)
			}
			codes = append(codes, string(key))
			return nil
		},
		func(key []byte, addr chain.Address, _ []byte) error {
			if addr != counterAddr && addr != secondAddr {
				t.Errorf("state visitor called for %s (%q), not a confidential contract", addr, key)
			}
			states = append(states, string(key))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 3 || len(states) != 2 {
		t.Fatalf("walk visited %d code and %d state records, want 3 and 2", len(codes), len(states))
	}
	sealedRecords := 2 + len(states) // two confidential code records + their state

	audit, err := s.engine.AuditSealedState()
	if err != nil {
		t.Fatalf("audit tripped over a record the walk should skip: %v", err)
	}
	if audit.Contracts != len(codes) || audit.Opened != sealedRecords {
		t.Errorf("audit saw %d contracts and opened %d records, want %d and %d", audit.Contracts, audit.Opened, len(codes), sealedRecords)
	}
	if _, err := s.engine.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	sweep, err := s.engine.ResealSweep(0)
	if err != nil {
		t.Fatalf("reseal tripped over a record the walk should skip: %v", err)
	}
	if sweep.Scanned != audit.Opened || sweep.Resealed != audit.Opened || !sweep.Done {
		t.Errorf("reseal scanned %d and migrated %d records, the audit opened %d", sweep.Scanned, sweep.Resealed, audit.Opened)
	}
	for _, k := range states {
		v, _, _ := s.store.Get([]byte(k))
		if e, _, err := keyepoch.ParseRecord(v); err != nil || e != 2 {
			t.Errorf("%q not re-sealed under epoch 2 (epoch %d, %v)", k, e, err)
		}
	}
	for k, before := range untouched {
		if after, _, _ := s.store.Get([]byte(k)); !bytes.Equal(after, before) {
			t.Errorf("%q was rewritten by the sweep", k)
		}
	}
	if again, err := s.engine.AuditSealedState(); err != nil || again != audit {
		t.Errorf("audit after the sweep: %+v (%v), want %+v", again, err, audit)
	}
}
