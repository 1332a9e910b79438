package core

import (
	"errors"
	"testing"

	"confide/internal/chain"
	"confide/internal/storage"
)

// failingStore refuses every batch, as a full or failing disk does.
type failingStore struct{ *storage.MemStore }

func (failingStore) WriteBatch(*storage.Batch) error { return errors.New("disk full") }

// execConf runs one confidential call of the counter contract at addr and
// returns its result.
func execConf(t *testing.T, s *testStack, client *Client, addr chain.Address, method string, args ...[]byte) *ExecResult {
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
	return res
}

// applyBlock appends every result's writes to one batch, writes it to store
// and settles the engine's pending writes by the outcome, as a node does.
func applyBlock(t *testing.T, e *Engine, store storage.KVStore, results ...*ExecResult) error {
	t.Helper()
	var batch storage.Batch
	for _, res := range results {
		if err := res.AppendWrites(&batch); err != nil {
			t.Fatal(err)
		}
	}
	err := store.WriteBatch(&batch)
	e.SettleWrites(err == nil)
	return err
}

func newConfStack(t *testing.T) (*testStack, *Client) {
	t.Helper()
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, err := NewClient(s.engine.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	return s, client
}

// TestBlockReadsItsOwnPendingWrites: a later transaction in a block reads an
// earlier one's write before the block's batch reaches the store.
func TestBlockReadsItsOwnPendingWrites(t *testing.T) {
	s, client := newConfStack(t)
	var batch storage.Batch
	if err := execConf(t, s, client, counterAddr, "set", []byte("first")).AppendWrites(&batch); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.store.Get(stateKey(counterAddr, []byte("v"))); found {
		t.Fatal("the write reached the store before its batch")
	}
	if out := execConf(t, s, client, counterAddr, "get").Receipt.Output; string(out) != "first" {
		t.Errorf("second transaction read %q, want the first one's pending write", out)
	}
}

// TestLandedBlockKeepsOnlyReadKeys: once a block's batch lands, a key it
// wrote without reading leaves memory (the store has it), and a key it read
// and then wrote holds the new value in the read cache.
func TestLandedBlockKeepsOnlyReadKeys(t *testing.T) {
	s, client := newConfStack(t)
	readThenWritten := chain.AddressFromBytes([]byte("counter-read-then-written"))
	deployCounter(t, s.engine, readThenWritten, VMCVM, true)

	results := []*ExecResult{
		execConf(t, s, client, readThenWritten, "get"),
		execConf(t, s, client, readThenWritten, "set", []byte("new")),
		execConf(t, s, client, counterAddr, "set", []byte("blind")),
	}
	if err := applyBlock(t, s.engine, s.store, results...); err != nil {
		t.Fatal(err)
	}
	s.engine.sdm.mu.Lock()
	blind, blindCached := s.engine.sdm.cache[string(stateKey(counterAddr, []byte("v")))]
	read, readCached := s.engine.sdm.cache[string(stateKey(readThenWritten, []byte("v")))]
	pending := len(s.engine.sdm.pending)
	s.engine.sdm.mu.Unlock()
	if blindCached {
		t.Errorf("a key written but never read stays in the read cache as %q", blind)
	}
	if !readCached || string(read) != "new" {
		t.Errorf("read-then-written key cached = %v, %q; want the new value", readCached, read)
	}
	if pending != 0 {
		t.Errorf("%d pending writes outlived their block", pending)
	}
	if out := execConf(t, s, client, counterAddr, "get").Receipt.Output; string(out) != "blind" {
		t.Errorf("the dropped key read %q back from the store, want %q", out, "blind")
	}
}

// TestFailedPersistLeavesNoWriteReadable: a block whose batch fails to land
// leaves none of its writes readable, neither a key cached before it nor a
// fresh one.
func TestFailedPersistLeavesNoWriteReadable(t *testing.T) {
	s, client := newConfStack(t)
	fresh := chain.AddressFromBytes([]byte("counter-fresh"))
	deployCounter(t, s.engine, fresh, VMCVM, true)
	if err := applyBlock(t, s.engine, s.store, execConf(t, s, client, counterAddr, "set", []byte("old"))); err != nil {
		t.Fatal(err)
	}
	execConf(t, s, client, counterAddr, "get") // cached at "old"

	results := []*ExecResult{
		execConf(t, s, client, counterAddr, "set", []byte("lost")),
		execConf(t, s, client, fresh, "set", []byte("lost")),
	}
	if err := applyBlock(t, s.engine, failingStore{s.store}, results...); err == nil {
		t.Fatal("the failing store accepted the batch")
	}
	if out := execConf(t, s, client, counterAddr, "get").Receipt.Output; string(out) != "old" {
		t.Errorf("cached key reads %q after its block failed to persist, want %q", out, "old")
	}
	if out := execConf(t, s, client, fresh, "get").Receipt.Output; len(out) != 0 {
		t.Errorf("fresh key reads %q after its block failed to persist, want absent", out)
	}
}
