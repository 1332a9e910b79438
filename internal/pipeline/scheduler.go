// Package pipeline is the block scheduler that lets a leader keep several
// proposals in flight without the stale-parent transaction loss PR 5
// serialized the driver to avoid. It has three parts:
//
//   - Scheduler tracks the leader's predicted chain — the blocks proposed
//     but not yet applied — so each new proposal chains off the tip of the
//     in-flight chain (the predicted parent) instead of the committed tip.
//     When a predicted ancestor loses (view change re-proposes a different
//     block at its height, or a foreign block lands there), the scheduler
//     aborts the whole dependent suffix and hands its transactions back for
//     re-pooling.
//
//   - Executor decouples ordering from execution: consensus delivery
//     enqueues ordered blocks into a bounded channel and returns, so PBFT
//     instances N+1..N+k run their message rounds while block N executes.
//
//   - RunLanes fans one block's speculative OCC pass out over a few
//     goroutines (validation stays sequential — block order is the
//     serialization the paper's OCC scheduler preserves).
package pipeline

import (
	"sync"

	"confide/internal/chain"
)

// entry is one predicted (proposed, not yet applied) block.
type entry struct {
	height uint64
	hash   chain.Hash
	parent chain.Hash
	txs    []*chain.Tx
	// delivered flags an entry whose block consensus has already handed to
	// the executor queue: its transactions are counted there, not here, so
	// backlog accounting never counts a transaction twice.
	delivered bool
}

// Scheduler tracks the predicted chain a pipelining leader builds ahead of
// execution. All methods are safe for concurrent use; the proposer and the
// executor race Predict/Track against Applied by design.
//
// The invariant it maintains: entries form a contiguous hash-linked chain
// whose first entry's parent is the committed tip. Any observation that
// breaks the link — a different block applied at a predicted height, a view
// change, a tip that jumped (snapshot install), a delivery that skipped an
// earlier entry (its consensus slot was lost) — aborts the broken suffix
// and returns its transactions so the caller can re-pool them. Re-pooling
// is idempotent: pool insertion dedups, and execution-time dedup skips
// transactions an earlier block already committed.
type Scheduler struct {
	mu      sync.Mutex
	view    uint64
	entries []entry
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Predict returns the height and parent hash the next proposal must use,
// given the proposer's current view and committed tip. When the in-flight
// chain is intact the prediction extends it; when the view changed or the
// chain no longer links to the committed tip, every in-flight entry is
// aborted and its transactions returned for re-pooling, and the prediction
// falls back to the committed tip.
func (s *Scheduler) Predict(view, tipHeight uint64, tipHash chain.Hash) (height uint64, parent chain.Hash, aborted []*chain.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if view != s.view {
		// A view change re-proposes prepared instances under the new
		// leader and fills gaps with no-ops; nothing this node predicted
		// is guaranteed to land. Abort the whole chain.
		aborted = s.abortLocked(0)
		s.view = view
	}
	if len(s.entries) > 0 && (s.entries[0].height != tipHeight || s.entries[0].parent != tipHash) {
		// The committed tip moved under the prediction (a foreign block
		// applied at a predicted height, or a snapshot install jumped the
		// chain). The whole suffix chained off a block that never made it.
		aborted = append(aborted, s.abortLocked(0)...)
	}
	if n := len(s.entries); n > 0 {
		return s.entries[n-1].height + 1, s.entries[n-1].hash, aborted
	}
	return tipHeight, tipHash, aborted
}

// Track records a proposal at the predicted position. Called after Predict,
// before handing the block to consensus.
func (s *Scheduler) Track(height uint64, hash, parent chain.Hash, txs []*chain.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, entry{height: height, hash: hash, parent: parent, txs: txs})
	mSchedTracked.Inc()
	mSchedDepth.Add(1)
}

// Untrack removes the entry for a proposal that never entered consensus
// (Propose returned an error); the caller re-pools its transactions itself.
func (s *Scheduler) Untrack(height uint64, hash chain.Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].height == height && s.entries[i].hash == hash {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			mSchedDepth.Add(-1)
			return
		}
	}
}

// Delivered flags the entry whose block consensus just delivered: from here
// until Applied, its transactions are accounted to the executor queue.
// Consensus delivers in sequence order and a leader's proposals take
// increasing sequences, so a delivery that skips an earlier entry proves that
// entry's slot went to another payload (a carried block or a no-op) and it
// will never deliver: it and everything chained off it abort and are returned
// for re-pooling, or predictions would keep extending a chain that cannot apply.
func (s *Scheduler) Delivered(height uint64, hash chain.Hash) (aborted []*chain.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost := -1 // first entry consensus has not delivered
	for i := range s.entries {
		e := &s.entries[i]
		if e.height == height && e.hash == hash {
			if lost >= 0 {
				return s.abortLocked(lost)
			}
			e.delivered = true
			return nil
		}
		if lost < 0 && !e.delivered {
			lost = i
		}
	}
	return nil
}

// Applied observes a block that just applied at height, advancing the
// committed tip. A match consumes the head of the predicted chain; a
// mismatch means a different block landed at a predicted height, so the
// head and every entry chained off it abort — their transactions are
// returned for re-pooling.
func (s *Scheduler) Applied(height uint64, hash chain.Hash) (aborted []*chain.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return nil
	}
	if s.entries[0].height == height && s.entries[0].hash == hash {
		s.entries = s.entries[1:]
		mSchedDepth.Add(-1)
		return nil
	}
	if s.entries[0].height > height {
		// An old block (below the predicted chain) re-applied — a stale
		// duplicate the apply path already no-ops. Not our concern.
		return nil
	}
	return s.abortLocked(0)
}

// InFlightTxs counts transactions riding proposals that consensus has not
// yet delivered — the scheduler's contribution to the node backlog.
func (s *Scheduler) InFlightTxs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for i := range s.entries {
		if !s.entries[i].delivered {
			total += len(s.entries[i].txs)
		}
	}
	return total
}

// Depth reports the number of in-flight predicted blocks.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// abortLocked drops entries[from:] and returns their transactions.
// Caller holds s.mu.
func (s *Scheduler) abortLocked(from int) []*chain.Tx {
	var txs []*chain.Tx
	for i := from; i < len(s.entries); i++ {
		txs = append(txs, s.entries[i].txs...)
	}
	if n := len(s.entries) - from; n > 0 {
		mSchedAborted.Add(uint64(n))
		mSchedRepooledTxs.Add(uint64(len(txs)))
		mSchedDepth.Add(-int64(n))
	}
	s.entries = s.entries[:from]
	return txs
}
