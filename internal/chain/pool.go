package chain

import (
	"errors"
	"sync"
)

// TxPool is a bounded FIFO transaction pool with hash de-duplication. The
// pre-verification pipeline (Figure 7) uses two of them: transactions arrive
// in the un-verified pool, and pre-verification moves valid ones into the
// verified pool that consensus drains.
//
// Every operation is O(1), amortized. Remove leaves a hole (nil) in the queue
// rather than shifting its tail; pops skip holes, and the queue is compacted
// once holes and popped slots make up half of it.
type TxPool struct {
	mu    sync.Mutex
	queue []*Tx        // arrival order from head on; nil = removed
	head  int          // queue[:head] is popped
	holes int          // removed entries in queue[head:]
	index map[Hash]int // pooled transaction → its slot in queue
	cap   int
}

// ErrPoolFull is returned when the pool is at capacity.
var ErrPoolFull = errors.New("chain: transaction pool full")

// ErrDuplicateTx is returned when a transaction is already pooled.
var ErrDuplicateTx = errors.New("chain: duplicate transaction")

// NewTxPool creates a pool bounded at capacity transactions.
func NewTxPool(capacity int) *TxPool {
	return &TxPool{index: make(map[Hash]int), cap: capacity}
}

// Add enqueues tx, rejecting duplicates and overflow.
func (p *TxPool) Add(tx *Tx) error {
	h := tx.Hash()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.index) >= p.cap {
		return ErrPoolFull
	}
	if _, dup := p.index[h]; dup {
		return ErrDuplicateTx
	}
	p.index[h] = len(p.queue)
	p.queue = append(p.queue, tx)
	return nil
}

// PopBatch dequeues up to max transactions in arrival order.
func (p *TxPool) PopBatch(max int) []*Tx {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(max, len(p.index))
	if n <= 0 {
		return nil
	}
	batch := make([]*Tx, 0, n)
	for len(batch) < n {
		tx := p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
		if tx == nil {
			p.holes--
			continue
		}
		delete(p.index, tx.Hash())
		batch = append(batch, tx)
	}
	p.tidy()
	return batch
}

// Remove drops a transaction by hash (used when a block commits a
// transaction this node never proposed itself). It reports whether the
// transaction was present.
func (p *TxPool) Remove(h Hash) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[h]
	if !ok {
		return false
	}
	delete(p.index, h)
	p.queue[i] = nil
	p.holes++
	p.tidy()
	return true
}

// tidy steps the head over leading holes, and compacts the queue once dead
// slots (popped or removed) are at least half of it, so each slot is moved
// at most once per slot that died. The caller holds p.mu.
func (p *TxPool) tidy() {
	for p.head < len(p.queue) && p.queue[p.head] == nil {
		p.head++
		p.holes--
	}
	if len(p.index) > 0 && (p.head+p.holes)*2 < len(p.queue) {
		return
	}
	live := p.queue[:0]
	for _, tx := range p.queue[p.head:] {
		if tx != nil {
			p.index[tx.Hash()] = len(live)
			live = append(live, tx)
		}
	}
	clear(p.queue[len(live):])
	p.queue, p.head, p.holes = live, 0, 0
}

// Len reports the number of pooled transactions.
func (p *TxPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.index)
}
