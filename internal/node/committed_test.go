package node

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/storage"
)

// The store is the node's only memory of what committed: rc/<hash> answers
// "already committed?" at the door, at promotion and at execution, on a node
// however it came by its chain. These tests pin that rule where the in-memory
// index it replaced had holes.

// TestSnapshotJoinedNodeRefusesCommittedTx: a replica that joined by snapshot
// holds a receipt for every pre-checkpoint transaction and no block that
// carried one. Re-submitting or re-gossiping such a transaction must be
// refused at the door like on its peers — the in-memory index had no entry
// for it, so the copy sat in the un-verified pool forever.
func TestSnapshotJoinedNodeRefusesCommittedTx(t *testing.T) {
	const interval = 3
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		Node:  Config{CheckpointInterval: interval, SyncInterval: 15 * time.Millisecond},
	})
	txs := driveBlocks(t, c, 2*interval+1, "joined") // height 7: checkpoints at 3 and 6
	tip := c.Nodes[0].Height()
	installs := mSyncPathSnapshot.Value()
	victim := victimOf(c)
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	joined := c.Nodes[victim]
	if err := joined.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("wiped node never caught up: %v", err)
	}
	if mSyncPathSnapshot.Value() == installs {
		t.Fatal("the wiped node rejoined without a snapshot install")
	}
	old := txs[0] // block 0: below the installed checkpoint
	if _, err := joined.BlockAt(0); err == nil {
		t.Fatal("the joined node holds block 0: the transaction is not pre-base for it")
	}
	if err := joined.SubmitTx(old); err != ErrAlreadyCommitted {
		t.Errorf("re-submission to the joined node: err = %v, want ErrAlreadyCommitted", err)
	}
	if err := joined.admit(nil, old.Encode()); err != ErrAlreadyCommitted {
		t.Errorf("re-gossip to the joined node: err = %v, want ErrAlreadyCommitted", err)
	}
	if err := joined.promoteVerified([]*chain.Tx{old})[0]; err != ErrAlreadyCommitted {
		t.Errorf("late promotion on the joined node: err = %v, want ErrAlreadyCommitted", err)
	}
	if u, v := joined.UnverifiedPoolLen(), joined.VerifiedPoolLen(); u+v != 0 {
		t.Errorf("joined node pooled a committed transaction: %d un-verified, %d verified", u, v)
	}
	// It proves what it holds a block for, and says "not found" — not an I/O
	// error — for what it holds only a receipt for.
	if _, err := joined.ProveTx(old.Hash()); err != ErrNotFound {
		t.Errorf("ProveTx of a pre-base transaction: err = %v, want ErrNotFound", err)
	}
	last := txs[len(txs)-1]
	proof, err := joined.ProveTx(last.Hash())
	if err != nil {
		t.Fatalf("ProveTx of a replayed-tail transaction: %v", err)
	}
	if err := VerifyConsensusRead(proof, []*Node{c.Nodes[(victim+1)%4], c.Nodes[(victim+2)%4]}, 2); err != nil {
		t.Error(err)
	}
}

// rcFailStore fails every read of a receipt key — the committed lookup's one
// input — and passes everything else through.
type rcFailStore struct{ storage.KVStore }

func (s rcFailStore) Get(key []byte) ([]byte, bool, error) {
	if bytes.HasPrefix(key, []byte("rc/")) {
		return nil, false, errors.New("injected read failure")
	}
	return s.KVStore.Get(key)
}

// TestFailedCommittedLookupIsFatal: a store read that fails during dedup must
// not read as "not committed" — the replica would re-execute a duplicate its
// peers skip. The block is abandoned and the node fails stop.
func TestFailedCommittedLookupIsFatal(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	n := c.Nodes[victimOf(c)]
	n.store = rcFailStore{n.store} // the cluster is idle: nothing else reads the field
	tx, _, err := newClusterClient(t, c).NewConfidentialTx(ledgerAddr, "credit", acct("fatal"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	block := &chain.Block{Txs: []*chain.Tx{tx}} // height 0 on the zero prev-hash: the tip of an empty chain
	block.ComputeTxRoot()
	fatals := mStoreFatal.Value()
	if n.applyDecoded(0, block, block.Encode()) {
		t.Fatal("applyDecoded applied a block whose committed lookup failed")
	}
	if n.Failed() == nil {
		t.Error("Failed() is nil after a failed committed lookup")
	}
	if got := mStoreFatal.Value() - fatals; got != 1 {
		t.Errorf("confide_node_store_fatal_total moved by %d, want 1", got)
	}
	if h := n.Height(); h != 0 {
		t.Errorf("height moved to %d", h)
	}
	if _, found, _ := n.store.(rcFailStore).KVStore.Get(BlockKey(0)); found {
		t.Error("the abandoned block was stored")
	}
	if err := n.SubmitTx(tx); err == nil || err == ErrAlreadyCommitted {
		t.Errorf("the door answered a failed lookup with %v", err)
	}
}

// goroutinesInside counts the goroutines, the caller's apart, that are inside
// a function of this module. runtime.NumGoroutine will not do: a goroutine
// that has signalled its exit (WaitGroup.Done, close(done)) is counted until
// the runtime retires it. Every loop here signals from a defer of its
// outermost function, so a goroutine on its way out is running, not parked,
// with that function its only frame in the module.
func goroutinesInside() (count int, stacks string) {
	buf := make([]byte, 4<<20)
	all := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	for _, g := range all[1:] { // the caller comes first
		lines := strings.Split(g, "\n")
		frames := 0
		for _, line := range lines {
			if strings.HasPrefix(line, "confide/") {
				frames++
			}
		}
		leaving := frames == 1 && (strings.Contains(lines[0], "[runnable") || strings.Contains(lines[0], "[running"))
		if frames > 0 && !leaving {
			count++
			stacks += g + "\n\n"
		}
	}
	return count, stacks
}

// TestKillWaitsForEveryGoroutine: Close on a cluster whose announce loops
// tick every millisecond, whose proposers run and whose re-seal loops are
// mid-sweep returns with every goroutine the cluster started out of its loop
// — the proposer, the announce and re-seal loops, the executor, the replica's
// timers and the endpoint's handlers — with no sleep and no poll: nothing can
// still be writing a store that RestartNode is about to reopen.
func TestKillWaitsForEveryGoroutine(t *testing.T) {
	before, _ := goroutinesInside()
	c := newTestCluster(t, ClusterOptions{
		Nodes: 4,
		// 20 records/s is one record per 50 ms tick, and its write takes 120:
		// the sweep below needs seconds and a loop at it is always inside the
		// store, so Close lands in the middle of a write on every node.
		// Checkpoints are on so the announce loop runs too.
		Node:              Config{ResealRate: 20, CheckpointInterval: 4, SyncInterval: time.Millisecond},
		StoreWriteLatency: 120 * time.Millisecond,
	})
	stop := c.StartDriver(0)
	client := newClusterClient(t, c)
	var txs []*chain.Tx
	for i := 0; i < 48; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct(fmt.Sprintf("k%d", i)), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	waitCommittedEverywhere(t, c, txs, 30*time.Second)
	stop() // rotateAndActivate drives its own rounds
	resealed := func() uint64 {
		return metrics.Default().Snapshot().CounterSum("confide_keyepoch_resealed_records_total")
	}
	sweeping := resealed()
	rotateAndActivate(t, c, 2)
	c.StartDriver(0)                                                              // left running: Close stops the proposers too
	waitUntil(t, 10*time.Second, func() bool { return resealed() >= sweeping+8 }) // every loop is at it
	for _, n := range c.Nodes {
		if !n.ConfidentialEngine().StaleEpochsRetained() {
			t.Fatalf("node %d drained 48 records at one per tick already: Close would not land mid-sweep", n.ID())
		}
	}
	c.Close()
	if after, stacks := goroutinesInside(); after > before {
		t.Fatalf("%d goroutines inside the module before NewCluster, %d after Close:\n%s", before, after, stacks)
	}
}

// staleReceiptStore answers the first read of one receipt key "not found",
// as a read that ran just before its block's batch landed would, and calls
// landed right after it.
type staleReceiptStore struct {
	storage.KVStore
	key    []byte
	landed func()
}

func (s *staleReceiptStore) Get(key []byte) ([]byte, bool, error) {
	if s.landed != nil && bytes.Equal(key, s.key) {
		landed := s.landed
		s.landed = nil
		landed()
		return nil, false, nil
	}
	return s.KVStore.Get(key)
}

// TestPromotionRechecksWhenTheTipMoves: promoteVerified reads the receipt
// without the state lock, so a block can commit between that read and the
// pool insert. The tip moving in between makes it read again, and the
// committed transaction stays out of the verified pool.
func TestPromotionRechecksWhenTheTipMoves(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	tx := driveBlocks(t, c, 1, "recheck")[0]
	n := c.Leader()
	height := n.Height()
	// The cluster is idle: nothing else reads the field, and the tip moves
	// as applyDecoded moves it, after the receipt is in the store.
	n.store = &staleReceiptStore{KVStore: n.store, key: core.ReceiptKey(tx.Hash()), landed: func() {
		n.setTip(height+1, chain.Hash{1})
	}}
	if err := n.promoteVerified([]*chain.Tx{tx})[0]; err != ErrAlreadyCommitted {
		t.Errorf("promotion across a tip move: err = %v, want ErrAlreadyCommitted", err)
	}
	if v := n.VerifiedPoolLen(); v != 0 {
		t.Errorf("the verified pool holds %d committed transactions", v)
	}
}
