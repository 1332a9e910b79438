package pipeline

import (
	"sync"
	"sync/atomic"

	"confide/internal/chain"
)

// queued is one ordered block awaiting execution, with the consensus
// sequence that ordered it.
type queued struct {
	seq     uint64
	block   *chain.Block
	payload []byte
}

// Executor is the execute-behind-order queue: consensus delivery enqueues
// ordered blocks and returns immediately, and a single executor goroutine
// applies them in delivery order. The queue is bounded — when execution
// falls more than capacity blocks behind, Submit blocks, which stalls only
// the replica's delivery loop (the consensus message handlers keep running,
// so PBFT rounds for later instances proceed while execution catches up).
//
// Sequential application is deliberate: block order is the serialization
// contract. Concurrency lives inside a block (RunLanes), not across blocks.
type Executor struct {
	apply func(uint64, *chain.Block, []byte)
	queue chan queued
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	// sendMu is held (shared) for the duration of every Submit. Close takes
	// it exclusively after run() exits, so its final drain observes every
	// send that raced with shutdown — without it, a Submit that passed the
	// stop check before Close could land its send after run()'s drain and
	// strand the block with its accounting inflated.
	sendMu sync.RWMutex

	queuedBlocks atomic.Int64
	queuedTxs    atomic.Int64
}

// NewExecutor starts the executor goroutine. capacity bounds how many
// delivered-but-unexecuted blocks may queue before delivery backpressures;
// apply is invoked once per block, in delivery order.
func NewExecutor(capacity int, apply func(seq uint64, block *chain.Block, payload []byte)) *Executor {
	if capacity < 1 {
		capacity = 1
	}
	e := &Executor{
		apply: apply,
		queue: make(chan queued, capacity),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go e.run()
	return e
}

func (e *Executor) run() {
	defer close(e.done)
	for {
		select {
		case q := <-e.queue:
			e.apply(q.seq, q.block, q.payload)
			e.account(-1, q.block)
		case <-e.stop:
			// Queued blocks are dropped, not applied: they are ordered
			// consensus output that a restarted node fetches again from its
			// peers' stores, so no transaction is lost. Only the accounting
			// is unwound.
			for {
				select {
				case q := <-e.queue:
					e.account(-1, q.block)
				default:
					return
				}
			}
		}
	}
}

// Submit enqueues the block delivered at seq, blocking while the queue is
// full. Returns false once the executor is closed (the block is dropped; see
// run).
func (e *Executor) Submit(seq uint64, block *chain.Block, payload []byte) bool {
	// Never blocks indefinitely under the read lock: once stop closes, the
	// send select below always has a ready case.
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	select {
	case <-e.stop:
		return false
	default:
	}
	e.account(+1, block)
	select {
	case e.queue <- queued{seq: seq, block: block, payload: payload}:
		return true
	case <-e.stop:
		e.account(-1, block)
		return false
	}
}

// account moves one block into (+1) or out of (-1) the queue's books: the
// executor's own counts and the process-wide gauges.
func (e *Executor) account(sign int64, block *chain.Block) {
	txs := sign * int64(len(block.Txs))
	e.queuedBlocks.Add(sign)
	e.queuedTxs.Add(txs)
	mExecQueueBlocks.Add(sign)
	mExecQueueTxs.Add(txs)
}

// QueuedTxs reports transactions sitting in delivered-but-unexecuted blocks
// (including the one currently executing) — the executor's contribution to
// the node backlog.
func (e *Executor) QueuedTxs() int { return int(e.queuedTxs.Load()) }

// Depth reports queued blocks, including the one currently executing.
func (e *Executor) Depth() int { return int(e.queuedBlocks.Load()) }

// Close stops the executor and waits for the in-progress block application
// (if any) to finish. Idempotent.
func (e *Executor) Close() {
	e.once.Do(func() { close(e.stop) })
	<-e.done
	// Exclusive-lock barrier: every Submit in flight when stop closed has
	// returned, and any later Submit fails the stop check before sending.
	// Whatever such a racing Submit managed to enqueue after run()'s drain
	// is unwound here, keeping the queue metrics honest for anything that
	// reads Backlog() during shutdown.
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	for {
		select {
		case q := <-e.queue:
			e.account(-1, q.block)
		default:
			return
		}
	}
}
