package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"confide/internal/chain"
)

// TestSubmitTxSizeBound exercises the two refusals at the door into the
// un-verified pool (Node.admit), by both roads to it: an encoded transaction
// just over MaxTxBytes gets the distinct ErrTxTooLarge before touching the
// pool whether a client submits it or a peer gossips it, counted once per
// refusing node either way; and one that already committed gets
// ErrAlreadyCommitted.
func TestSubmitTxSizeBound(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	client := newClusterClient(t, c)
	n := c.Nodes[0]

	big := &chain.Tx{Type: chain.TxTypePublic, Payload: make([]byte, MaxTxBytes)}
	if size := len(big.Encode()); size <= MaxTxBytes || size > MaxTxBytes+64 {
		t.Fatalf("test transaction encodes to %d bytes, want just over %d", size, MaxTxBytes)
	}
	rejected := mOversizedRejected.Value()
	if err := n.SubmitTx(big); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("oversized SubmitTx: %v, want ErrTxTooLarge", err)
	}
	if got := mOversizedRejected.Value() - rejected; got != 1 {
		t.Fatalf("the submit path counted %d oversized rejections, want 1", got)
	}
	// The same bytes relayed by a peer that skipped its own check: each of the
	// three receivers refuses them the same way.
	rejected = mOversizedRejected.Value()
	n.Endpoint().Broadcast(gossipTopic, big.Encode())
	for deadline := time.Now().Add(5 * time.Second); mOversizedRejected.Value()-rejected < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("the gossip path counted %d oversized rejections, want 3", mOversizedRejected.Value()-rejected)
		}
		time.Sleep(time.Millisecond)
	}
	for _, peer := range c.Nodes {
		if peer.UnverifiedPoolLen() != 0 {
			t.Fatalf("oversized transaction entered node %d's pool", peer.ID())
		}
	}
	small, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("ba"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(small); err != nil {
		t.Fatalf("in-bound SubmitTx: %v", err)
	}
	drain(t, c)
	if err := n.SubmitTx(small); !errors.Is(err, ErrAlreadyCommitted) {
		t.Fatalf("re-submit after commit: %v, want ErrAlreadyCommitted", err)
	}
}

// TestOnCommit checks the receipt-notification hook: registered hooks see
// every committed block's height and tx hashes, and unregistering stops
// delivery.
func TestOnCommit(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	client := newClusterClient(t, c)
	n := c.Nodes[0]

	var mu sync.Mutex
	var seen []chain.Hash
	remove := n.OnCommit(func(height uint64, hashes []chain.Hash) {
		mu.Lock()
		seen = append(seen, hashes...)
		mu.Unlock()
	})

	tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("oc"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	drain(t, c)
	mu.Lock()
	found := false
	for _, h := range seen {
		if h == tx.Hash() {
			found = true
		}
	}
	count := len(seen)
	mu.Unlock()
	if !found {
		t.Fatal("commit hook never saw the committed transaction")
	}

	remove()
	tx2, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("oc"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	drain(t, c)
	mu.Lock()
	after := len(seen)
	mu.Unlock()
	if after != count {
		t.Fatal("unregistered hook still received commits")
	}
}
