package pipeline

import (
	"sync"
	"testing"
	"time"

	"confide/internal/chain"
)

func block(h uint64, txs int) *chain.Block {
	b := &chain.Block{Header: chain.Header{Height: h}, Txs: mkTxs(txs, byte(h))}
	b.ComputeTxRoot()
	return b
}

// Blocks apply in submission order, one at a time.
func TestExecutorAppliesInOrder(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{}, 8)
	e := NewExecutor(4, func(_ uint64, b *chain.Block, payload []byte) {
		mu.Lock()
		got = append(got, b.Header.Height)
		mu.Unlock()
		done <- struct{}{}
	})
	defer e.Close()
	for h := uint64(0); h < 5; h++ {
		if !e.Submit(h, block(h, 1), nil) {
			t.Fatalf("submit %d rejected", h)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for apply %d", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, h := range got {
		if h != uint64(i) {
			t.Fatalf("applied out of order: %v", got)
		}
	}
}

// A full queue blocks Submit (backpressure into the delivery loop) until
// the executor drains.
func TestExecutorBackpressure(t *testing.T) {
	release := make(chan struct{})
	e := NewExecutor(1, func(_ uint64, b *chain.Block, payload []byte) { <-release })
	defer e.Close()
	defer close(release)

	e.Submit(0, block(0, 1), nil) // picked up by the executor, blocked in apply
	e.Submit(0, block(1, 1), nil) // fills the queue
	blocked := make(chan bool, 1)
	go func() { blocked <- e.Submit(0, block(2, 1), nil) }()
	select {
	case <-blocked:
		t.Fatal("submit returned with the queue full")
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{} // finish block 0, freeing a slot
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatal("unblocked submit reported closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit never unblocked after drain")
	}
	if d := e.Depth(); d < 1 {
		t.Fatalf("depth = %d, want ≥ 1 while applies outstanding", d)
	}
}

// QueuedTxs tracks transactions from Submit until their block finishes
// applying.
func TestExecutorQueuedTxs(t *testing.T) {
	release := make(chan struct{})
	e := NewExecutor(4, func(_ uint64, b *chain.Block, payload []byte) { <-release })
	defer e.Close()
	e.Submit(0, block(0, 3), nil)
	e.Submit(0, block(1, 2), nil)
	if got := e.QueuedTxs(); got != 5 {
		t.Fatalf("queued txs = %d, want 5", got)
	}
	release <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for e.QueuedTxs() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.QueuedTxs(); got != 2 {
		t.Fatalf("queued txs = %d after first apply, want 2", got)
	}
	close(release)
}

// Close unblocks pending Submits, waits out the in-progress apply, and
// subsequent Submits are rejected.
func TestExecutorClose(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	e := NewExecutor(1, func(_ uint64, b *chain.Block, payload []byte) {
		started <- struct{}{}
		<-release
	})
	e.Submit(0, block(0, 1), nil)
	<-started                     // executor is inside apply(block 0)
	e.Submit(0, block(1, 1), nil) // fills the queue
	blocked := make(chan bool, 1)
	go func() { blocked <- e.Submit(0, block(2, 1), nil) }()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	// Close must wait for the in-progress apply...
	select {
	case <-closed:
		t.Fatal("Close returned while a block was applying")
	case <-time.After(50 * time.Millisecond):
	}
	// ...but it unblocks the Submit parked on the full queue (the apply is
	// still holding the executor, so the queue cannot have drained).
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("blocked Submit reported success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit never unblocked after Close")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if e.Submit(0, block(3, 1), nil) {
		t.Fatal("Submit accepted after Close")
	}
	if e.QueuedTxs() != 0 || e.Depth() != 0 {
		t.Fatalf("accounting not unwound after Close: txs=%d depth=%d", e.QueuedTxs(), e.Depth())
	}
}

// A Submit racing Close must never strand a block in the queue with its
// accounting inflated: a send that slips in between run()'s drain and
// Close's return is unwound by Close's final drain, behind a lock barrier
// that waits out every in-flight Submit.
func TestExecutorSubmitCloseRace(t *testing.T) {
	for i := 0; i < 100; i++ {
		e := NewExecutor(4, func(_ uint64, b *chain.Block, payload []byte) {})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for h := uint64(0); h < 8; h++ {
					e.Submit(0, block(h, 2), nil)
				}
			}()
		}
		closed := make(chan struct{})
		go func() { <-start; e.Close(); close(closed) }()
		close(start)
		wg.Wait()
		<-closed
		if e.QueuedTxs() != 0 || e.Depth() != 0 {
			t.Fatalf("iteration %d: stranded accounting after Close: txs=%d depth=%d", i, e.QueuedTxs(), e.Depth())
		}
	}
}
