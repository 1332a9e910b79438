package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func poolTx(i int) *Tx {
	return &Tx{Type: TxTypePublic, Payload: []byte(fmt.Sprintf("tx-%d", i))}
}

func TestTxPoolFIFO(t *testing.T) {
	p := NewTxPool(10)
	for i := 0; i < 5; i++ {
		if err := p.Add(poolTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := p.PopBatch(3)
	if len(batch) != 3 || string(batch[0].Payload) != "tx-0" || string(batch[2].Payload) != "tx-2" {
		t.Errorf("batch order wrong: %v", batch)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2", p.Len())
	}
	if rest := p.PopBatch(100); len(rest) != 2 {
		t.Errorf("second batch = %d txs, want 2", len(rest))
	}
}

func TestTxPoolDuplicateRejected(t *testing.T) {
	p := NewTxPool(10)
	tx := poolTx(1)
	if err := p.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx); !errors.Is(err, ErrDuplicateTx) {
		t.Errorf("err = %v, want ErrDuplicateTx", err)
	}
	// After popping, the same tx may be re-added (e.g. re-broadcast).
	p.PopBatch(1)
	if err := p.Add(tx); err != nil {
		t.Errorf("re-add after pop: %v", err)
	}
}

func TestTxPoolCapacity(t *testing.T) {
	p := NewTxPool(2)
	p.Add(poolTx(0))
	p.Add(poolTx(1))
	if err := p.Add(poolTx(2)); !errors.Is(err, ErrPoolFull) {
		t.Errorf("err = %v, want ErrPoolFull", err)
	}
}

func TestTxPoolConcurrent(t *testing.T) {
	p := NewTxPool(10_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Add(poolTx(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for {
		b := p.PopBatch(64)
		if len(b) == 0 {
			break
		}
		total += len(b)
	}
	if total != 800 {
		t.Errorf("drained %d, want 800", total)
	}
}

// TestTxPoolMatchesReference drives random Add/Remove/PopBatch sequences
// against a plain slice that keeps arrival order, and checks every result.
func TestTxPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity, distinct = 48, 96
		p := NewTxPool(capacity)
		var ref []*Tx
		txs := make([]*Tx, distinct)
		for i := range txs {
			txs[i] = poolTx(i)
		}
		find := func(tx *Tx) int {
			for i, r := range ref {
				if r == tx {
					return i
				}
			}
			return -1
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				tx := txs[rng.Intn(distinct)]
				var want error
				switch {
				case len(ref) >= capacity:
					want = ErrPoolFull
				case find(tx) >= 0:
					want = ErrDuplicateTx
				default:
					ref = append(ref, tx)
				}
				if err := p.Add(tx); err != want {
					t.Fatalf("seed %d step %d: Add = %v, want %v", seed, step, err, want)
				}
			case op < 8:
				tx := txs[rng.Intn(distinct)]
				i := find(tx)
				if i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
				if got := p.Remove(tx.Hash()); got != (i >= 0) {
					t.Fatalf("seed %d step %d: Remove = %v, want %v", seed, step, got, i >= 0)
				}
			default:
				n := rng.Intn(capacity/2) - 2 // a few non-positive sizes too
				want := ref[:min(max(n, 0), len(ref))]
				got := p.PopBatch(n)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: PopBatch(%d) = %d txs, want %d", seed, step, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: PopBatch(%d)[%d] = %s, want %s", seed, step, n, i, got[i].Payload, want[i].Payload)
					}
				}
				ref = append([]*Tx(nil), ref[len(want):]...)
			}
			if p.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, p.Len(), len(ref))
			}
		}
	}
}
