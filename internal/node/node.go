// Package node assembles a full consortium blockchain node: the p2p
// endpoint, the PBFT ordering replica, the transaction pools and
// pre-verification pipeline, the public and confidential execution engines,
// and the KV store — the complete platform of Figure 2.
//
// A node cuts its own blocks once StartProposer runs: a leader pre-verifies
// its pool and proposes a full block at once and a partial one when its
// ordering window is empty, a follower verifies nothing.
// Cluster.ProcessRound drives the same two steps synchronously: the
// exact-block primitive for tests and the benchmark's replay.
//
// Every block a node applies arrives the same way: consensus delivers it, the
// executor applies it. A node that fell behind is caught up by its replica's
// fetch of committed sequences, which its peers answer from their stores
// (readCommitted); one a full checkpoint interval behind takes a snapshot
// instead (snapshot_sync.go).
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/keyepoch"
	"confide/internal/metrics"
	"confide/internal/p2p"
	"confide/internal/pipeline"
	"confide/internal/snapshot"
	"confide/internal/storage"
	"confide/internal/storage/vfs"
)

// Config shapes one node.
type Config struct {
	// BlockMaxTxs bounds transactions per block. Default 64.
	BlockMaxTxs int
	// PipelineDepth is the window of consensus proposals a leader keeps in
	// flight ahead of block application (the proposer loop's bound, and the
	// -pipeline-depth flag). Default 1: the next block is proposed once the
	// previous one has been delivered. Proposals chain off the predicted
	// parent (the tip of the in-flight chain), and delivered blocks always
	// execute behind ordering on the executor goroutine, whose queue holds
	// twice the window.
	PipelineDepth int
	// ExecWorkers is the execution fan-out (the paper's 1/4/6-way
	// experiments, the -exec-workers flag): each block's speculative pass
	// runs on this many OCC lanes. 1 or less means no lanes — every
	// transaction executes once, in block order. Validation stays sequential
	// in block order regardless, so any ExecWorkers mix across replicas
	// commits identical state.
	ExecWorkers int
	// EngineOpts configures both engines' optimizations.
	EngineOpts core.Options
	// Consensus tunes the replica's liveness timers (view timeout,
	// retransmission, heartbeats). Zero fields take consensus defaults.
	Consensus consensus.Options
	// SyncInterval paces checkpoint announces and snapshot-fetch retries.
	// Default 100ms.
	SyncInterval time.Duration
	// CheckpointInterval exports a state snapshot every this many blocks. 0
	// disables checkpoints.
	CheckpointInterval uint64
	// Retention keeps at least this many recent block payloads when pruning.
	// 0 disables pruning entirely (every block is retained, as before).
	// Pruning also never passes the last stable checkpoint.
	Retention uint64
	// SnapshotChunkBytes is the target snapshot chunk size. Default 256 KiB.
	SnapshotChunkBytes int
	// ResealRate paces the background key-epoch re-seal sweep in records per
	// second. 0 selects the default rate; negative disables the loop (tests
	// drive sweeps explicitly via ResealNow).
	ResealRate int
	// crash is the crash-point registry shared with this node's store; nil
	// (the default) disables crash points. Set by the cluster's disk-fault
	// harness.
	crash *vfs.CrashPoints
}

func (c Config) withDefaults() Config {
	if c.BlockMaxTxs == 0 {
		c.BlockMaxTxs = 64
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.SnapshotChunkBytes == 0 {
		c.SnapshotChunkBytes = snapshot.DefaultChunkBytes
	}
	return c
}

// MaxTxBytes bounds the wire-encoded transaction size accepted at the
// submission boundary (SubmitTx, the gateway's submit handlers) and
// re-checked on gossip receive, so one oversized envelope cannot be
// amplified cluster-wide before pre-verification would reject it. It is
// generous for the paper's workloads (the largest ABS envelope is a few
// KiB) while keeping a single transaction from dominating a block's gossip
// and storage budget.
const MaxTxBytes = 128 << 10

// ErrTxTooLarge reports a transaction whose wire encoding exceeds
// MaxTxBytes.
var ErrTxTooLarge = errors.New("node: transaction exceeds wire size limit")

// Node is one platform participant.
type Node struct {
	cfg      Config
	endpoint *p2p.Endpoint
	replica  *consensus.Replica
	store    storage.KVStore

	confEngine *core.Engine
	pubEngine  *core.Engine

	unverified *chain.TxPool
	verified   *chain.TxPool
	// verifying and cutting count the transactions a leader holds after
	// taking them from a pool (take): a pre-verification batch, a block
	// being cut.
	verifying atomic.Int64
	cutting   atomic.Int64

	// applyMu serializes block application (the executor) against a snapshot
	// install.
	applyMu sync.Mutex
	// proposeMu serializes ProposeBlock so the Predict→Track window of the
	// block scheduler sees a consistent predicted chain.
	proposeMu sync.Mutex
	// sched tracks the predicted chain of in-flight proposals (pipelined
	// leaders chain new blocks off its tip, not the committed tip) and
	// drives abort/re-pool when a predicted ancestor fails.
	sched *pipeline.Scheduler
	// executor is the execute-behind-order queue: consensus delivery
	// enqueues, its goroutine applies.
	executor *pipeline.Executor

	stop      chan struct{}
	stopOnce  sync.Once
	storeOnce sync.Once // closes the store (Close only; Kill leaves it)

	wake chan struct{} // the proposer loop's doorbell (kick): one slot, so rings coalesce
	// running counts every goroutine the node started (spawn): the proposer,
	// the checkpoint-announce and re-seal loops, a snapshot fetch. Kill waits
	// for all of them.
	running sync.WaitGroup

	// fatal records the first unrecoverable storage error: the node killed
	// itself rather than acknowledge commits whose durability is unknown or
	// execute on state that reads back wrong.
	fatalMu  sync.Mutex
	fatalErr error

	mu       sync.Mutex
	height   uint64
	prevHash chain.Hash
	heightCh chan struct{} // closed and replaced on every height advance
	// commitHooks are receipt-notification callbacks (OnCommit): serving
	// layers hosted on this node (the gateway's receipt long-poll) register
	// here to learn which transactions each applied block committed.
	commitHooks map[uint64]func(height uint64, hashes []chain.Hash)
	nextHookID  uint64

	// Key-epoch rotation state (guarded by applyMu, like the chain state it
	// mirrors). pendingRotation is a consensus-committed schedule awaiting
	// its activation height; rotationCandidate is a rotation executed in the
	// block currently being applied, promoted to pending only after its
	// batch commits. lastDrained notes the epoch whose re-seal sweep last
	// completed, so the background loop idles between rotations.
	pendingRotation   *keyepoch.Rotation
	rotationCandidate *keyepoch.Rotation
	lastDrained       uint64

	// snapshots holds the latest exported checkpoint for serving; snapMu
	// guards the fetch-session state in snapshot_sync.go.
	snapshots *snapshot.Manager
	snapMu    sync.Mutex
	snapFetch *snapFetchSession
	badPeers  map[p2p.NodeID]int // bad-chunk / bad-manifest score per peer

	tracer *metrics.Tracer
}

const gossipTopic = "confide/tx"

// New assembles a node over its endpoint, engines and store, and registers
// it with the consensus replica set of size n.
func New(cfg Config, endpoint *p2p.Endpoint, n int, confEngine, pubEngine *core.Engine, store storage.KVStore) *Node {
	cfg = cfg.withDefaults()
	node := &Node{
		cfg:         cfg,
		endpoint:    endpoint,
		store:       store,
		confEngine:  confEngine,
		pubEngine:   pubEngine,
		unverified:  chain.NewTxPool(1 << 16),
		verified:    chain.NewTxPool(1 << 16),
		commitHooks: make(map[uint64]func(uint64, []chain.Hash)),
		heightCh:    make(chan struct{}),
		stop:        make(chan struct{}),
		wake:        make(chan struct{}, 1),
		tracer:      newPipelineTracer(),
		snapshots:   snapshot.NewManager(),
		badPeers:    make(map[p2p.NodeID]int),
		sched:       pipeline.NewScheduler(),
	}
	// The queue bound doubles the pipeline depth so delivery backpressures
	// only when execution falls well behind.
	node.executor = pipeline.NewExecutor(cfg.PipelineDepth*2, func(seq uint64, b *chain.Block, payload []byte) {
		node.applyDecoded(seq, b, payload)
	})
	node.recoverChainState()
	node.adoptEpochState()
	opts := cfg.Consensus
	opts.WorkPending = func() bool {
		return node.unverified.Len()+node.verified.Len() > 0
	}
	opts.ViewAdopted = node.kick // this node may lead now
	opts.ReadCommitted = node.readCommitted
	node.replica = consensus.NewReplicaWithOptions(endpoint, n, node.onCommit, opts)
	node.alignReplica()
	// A peer's relay enters by the same door as a client's submission; one
	// that fails it (oversized, undecodable, stale) is dropped, not re-gossiped.
	endpoint.Subscribe(gossipTopic, func(m p2p.Message) { _ = node.admit(nil, m.Data) })
	node.startSnapshotSync()
	node.startResealLoop()
	return node
}

// recoverChainState resumes height and prev-hash from a durable store after a
// restart (state, receipts and the tx→height records are already there; the
// engine secrets re-arrive via the K-Protocol or an HSM-backed service).
// Payloads are contiguous from the base marker (snapshot install, pruning) or
// genesis up to the tip, and only the tip block is decoded.
func (n *Node) recoverChainState() {
	if height, prevHash, ok := readStoreBase(n.store); ok {
		n.height, n.prevHash = height, prevHash
	}
	base := n.height
	for {
		if _, found, err := n.store.Get(BlockKey(n.height)); err != nil || !found {
			break
		}
		n.height++
	}
	for n.height > base {
		if tip, err := n.BlockAt(n.height - 1); err == nil {
			n.prevHash = tip.Hash()
			return
		}
		n.height-- // an unreadable tip is no tip: resume below it and sync it again
	}
}

// seqOf reads the consensus sequence that ordered the block at height.
func (n *Node) seqOf(height uint64) (uint64, bool) {
	raw, found, err := n.store.Get(blockSeqKey(height))
	if err != nil || !found || len(raw) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(raw), true
}

// alignReplica tells consensus that everything below this node's tip is
// settled, however it got there (a recovered store, a snapshot install), so
// the replica rejoins ordering at the live tip. A proposal of this node's that
// a snapshot covered leaves its window here, not through onCommit, so the
// proposer loop is kicked too.
func (n *Node) alignReplica() {
	if tip := n.Height(); tip > 0 {
		if seq, ok := n.seqOf(tip - 1); ok {
			n.replica.AdvanceTo(seq + 1) // a no-op at or below what it delivered
		}
	}
	n.kick()
}

// readCommitted serves a lagging peer's committed fetch (consensus
// Options.ReadCommitted) from the store: the block ordered at seq, or an
// empty payload when seq ordered none (applying either leaves the peer's chain
// where this node's went). It serves nothing it cannot place — a sequence past
// this node's tip, or below its retained blocks — and nothing to a peer a full
// checkpoint interval behind the latest checkpoint: that is onSnapAnnounce's
// case, and the peer catches up by snapshot instead.
func (n *Node) readCommitted(seq uint64) []byte {
	tip := n.Height()
	if tip == 0 {
		return nil
	}
	tipSeq, ok := n.seqOf(tip - 1)
	if !ok || seq > tipSeq {
		return nil
	}
	// The blocks above the one ordered at (or last before) seq each took a
	// sequence in (seq, tipSeq], so that block is at least this high. Below
	// the prune floor only the record just under it is kept, so start there
	// at the lowest; a record past seq at the start places seq below it.
	from := tip - 1 - min(tipSeq-seq, tip-1)
	if floor := n.PrunedTo(); floor > 0 {
		from = max(from, floor-1)
	}
	for height := from; height < tip; height++ {
		at, ok := n.seqOf(height)
		switch {
		case !ok:
			return nil
		case at < seq:
			continue
		case at > seq && height == from:
			return nil // ordered below the retained blocks
		}
		// The peer holds every block below height and wants this one (at ==
		// seq) or the no-op before it: height is the peer's own.
		if interval := n.cfg.CheckpointInterval; interval > 0 && height+interval <= n.snapshots.LatestHeight() {
			return nil
		}
		if at > seq {
			return []byte{} // between two blocks: seq ordered none
		}
		raw, found, err := n.store.Get(BlockKey(height))
		if err != nil || !found {
			return nil
		}
		return raw
	}
	return nil
}

// uncommitted is the one answer to "has this transaction committed?": nil
// while the store holds no receipt (rc/<hash>) for it, ErrAlreadyCommitted
// once it does. The receipt lands in its block's atomic batch, rides in every
// snapshot and outlives pruning, so the rule holds on a replica however it
// came by its chain. A failed read is its own error and node-fatal, never
// "not committed": the replica would re-execute a duplicate its peers skip.
func (n *Node) uncommitted(h chain.Hash) error {
	_, found, err := core.ReadReceipt(n.store, h)
	if err != nil && !errors.Is(err, storage.ErrClosed) {
		n.fatalStore(fmt.Errorf("committed lookup of %s: %w", h, err))
	}
	if found {
		return ErrAlreadyCommitted
	}
	return err
}

// ID returns the node id.
func (n *Node) ID() p2p.NodeID { return n.endpoint.ID() }

// IsLeader reports whether this node leads the current consensus view.
func (n *Node) IsLeader() bool { return n.replica.IsLeader() }

// Store exposes the node's KV store (explorer, audit, tests).
func (n *Node) Store() storage.KVStore { return n.store }

// ConfidentialEngine exposes the confidential engine (attestation, stats).
func (n *Node) ConfidentialEngine() *core.Engine { return n.confEngine }

// PublicEngine exposes the public engine.
func (n *Node) PublicEngine() *core.Engine { return n.pubEngine }

// Height returns the number of committed blocks.
func (n *Node) Height() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.height
}

// SubmitTx accepts a client transaction and gossips it to the network.
func (n *Node) SubmitTx(tx *chain.Tx) error {
	encoded := tx.Encode()
	if err := n.admit(tx, encoded); err != nil {
		return err
	}
	n.endpoint.Broadcast(gossipTopic, encoded)
	return nil
}

// admit is the one door into the un-verified pool, for a client's submission
// and a peer's gossip alike: the wire size bound (checked before decoding, so
// one oversized envelope is neither parsed nor amplified cluster-wide), the
// already-committed check, the pool add, the tracer span and the proposer's
// doorbell. tx is nil when only the wire form is in hand (gossip).
func (n *Node) admit(tx *chain.Tx, encoded []byte) error {
	if len(encoded) > MaxTxBytes {
		mOversizedRejected.Inc()
		return ErrTxTooLarge
	}
	if tx == nil {
		var err error
		if tx, err = chain.DecodeTx(encoded); err != nil {
			return err
		}
	}
	h := tx.Hash()
	if err := n.uncommitted(h); err != nil {
		return err
	}
	if err := n.unverified.Add(tx); err != nil {
		return err
	}
	n.tracer.Begin(string(h[:]))
	n.kick()
	return nil
}

// Backlog reports this node's total uncommitted submission backlog: both
// transaction pools, the transactions a leader holds after each (take), the
// transactions riding in-flight proposals (counted exactly from the block
// scheduler's predicted chain) and those in delivered-but-unexecuted blocks
// on the executor queue. The terms are read in the order a transaction moves
// through them, so one moving meanwhile is still counted. The held and
// in-flight terms matter on the leader, whose pools drain the moment it
// pre-verifies and cuts — pool depth alone would tell its gateway the node is
// idle exactly when the pipeline is fullest. Admission control and
// Cluster.WaitIdle gate on this.
func (n *Node) Backlog() int {
	return n.unverified.Len() + int(n.verifying.Load()) + n.verified.Len() + int(n.cutting.Load()) +
		n.sched.InFlightTxs() + n.executor.QueuedTxs()
}

// take pops up to max transactions from pool into held, the count Backlog
// reads right after pool: held grows before the pool shrinks, so a
// transaction is never outside both. The caller subtracts len(txs) from held
// once it has placed them.
func take(pool *chain.TxPool, held *atomic.Int64, max int) []*chain.Tx {
	held.Add(int64(max))
	txs := pool.PopBatch(max)
	held.Add(int64(len(txs) - max))
	return txs
}

// OnCommit registers a receipt-notification hook invoked after every block
// commit with the block height and the hashes of the transactions it
// committed. Hooks run on the apply path (synchronously, outside the state
// lock) and must be fast — the gateway uses one to wake receipt long-polls.
// The returned function unregisters the hook.
func (n *Node) OnCommit(fn func(height uint64, hashes []chain.Hash)) (remove func()) {
	n.mu.Lock()
	id := n.nextHookID
	n.nextHookID++
	n.commitHooks[id] = fn
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		delete(n.commitHooks, id)
		n.mu.Unlock()
	}
}

// ErrAlreadyCommitted reports a re-submission of an executed transaction.
var ErrAlreadyCommitted = errors.New("node: transaction already committed")

// repoolUncommitted returns transactions from a block that failed to apply
// to the un-verified pool, skipping ones that already committed through
// another block. Pool dedup makes this idempotent.
func (n *Node) repoolUncommitted(txs []*chain.Tx) {
	for _, tx := range txs {
		if n.uncommitted(tx.Hash()) == nil {
			n.unverified.Add(tx)
		}
	}
	n.kick()
}

// promoteVerified moves pre-verified transactions into the verified pool, in
// order, and returns each one's outcome: nil once pooled, ErrAlreadyCommitted,
// or the pool's refusal. The committed checks are store reads, made side by
// side (commitLookups) and without the state lock; the Adds take the lock,
// and check again only if the tip moved since the reads. That is atomic
// against applyDecoded, which writes a block's receipts before setTip takes
// the lock and sweeps the pools after: a commit the reads may have missed
// either moved the tip first, and the second check sees its receipt, or
// sweeps the pools after the Adds. Without this, a transaction in transit
// through pre-verification while its block commits would be re-added after
// the sweep and sit in a follower's verified pool forever (followers never
// propose, so nothing else clears it).
func (n *Node) promoteVerified(txs []*chain.Tx) []error {
	n.mu.Lock()
	height := n.height
	n.mu.Unlock()
	errs := n.commitLookups(txs)
	n.mu.Lock()
	defer n.mu.Unlock()
	tipMoved := n.height != height
	for i, tx := range txs {
		if errs[i] == nil && tipMoved {
			errs[i] = n.uncommitted(tx.Hash())
		}
		if errs[i] == nil {
			errs[i] = n.verified.Add(tx)
		}
	}
	return errs
}

// lookupHelpers bounds the goroutines that join a promotion's committed
// lookups: a store with per-read latency (Figure 11's models a cloud KV
// store's 2 ms) would otherwise hold a pre-verified batch for a read per
// transaction in a row.
const lookupHelpers = 15

// commitLookups runs uncommitted for each transaction and returns the results
// in order. The caller works through the list itself, and up to lookupHelpers
// goroutines take items from the same counter, so a slow store's reads
// overlap. The caller waits only for items taken: on a fast store it finishes
// the list alone, and a helper that starts after that finds nothing to do,
// instead of the batch waiting behind a busy run queue for helpers to start.
func (n *Node) commitLookups(txs []*chain.Tx) []error {
	errs := make([]error, len(txs))
	var next atomic.Int64
	var taken sync.WaitGroup
	taken.Add(len(txs))
	lookup := func() {
		for i := int(next.Add(1)) - 1; i < len(txs); i = int(next.Add(1)) - 1 {
			errs[i] = n.uncommitted(txs[i].Hash())
			taken.Done()
		}
	}
	for range min(len(txs)-1, lookupHelpers) {
		go lookup()
	}
	lookup()
	taken.Wait()
	return errs
}

// PreVerifyPending moves valid transactions from the un-verified to the
// verified pool (Figure 7 P1–P5), up to two blocks' worth per call, and
// returns how many it moved. Only a leader calls it (the proposer loop, or
// ProcessRound): followers execute on the proposer enclave's tag and key
// relay, so their own ECDH open and ECDSA check per transaction would only
// warm a pool for after a view change — whose winner verifies it cold then.
func (n *Node) PreVerifyPending() int {
	batch := take(n.unverified, &n.verifying, n.cfg.BlockMaxTxs*2)
	defer n.verifying.Add(-int64(len(batch)))
	if len(batch) == 0 {
		return 0
	}
	// Structural check only for a rotation here; the semantic checks
	// (successor epoch, future height) run against chain state at execution.
	var rotations, contract []*chain.Tx
	for _, tx := range batch {
		if tx.Type != chain.TxTypeGovernance {
			contract = append(contract, tx)
		} else if _, err := keyepoch.DecodeRotation(tx.Payload); err == nil {
			rotations = append(rotations, tx)
		}
	}
	// Public transactions pre-verify through the CS enclave too
	// (PreVerifyBatch handles both classes): the block attestation tag only
	// vouches for signatures checked inside the enclave, so host-side
	// verification could never be covered by it.
	promote := append(rotations, n.confEngine.PreVerifyBatch(contract)...)
	// A contract transaction refused here has left the pools for good: its
	// block committed while it was in transit, after that commit's
	// DropPreVerified ran (or the verified pool is full). The metadata
	// PreVerifyBatch just cached for it, k_tx included, must leave the
	// enclave now. A duplicate keeps its entry: the copy already in the
	// verified pool still needs it at proposal time. A refused rotation holds
	// no enclave entry to release.
	var refused []chain.Hash
	moved := 0
	for i, err := range n.promoteVerified(promote) {
		h := promote[i].Hash()
		switch {
		case err == nil:
			n.tracer.Mark(string(h[:]), "preverify")
			moved++
		case i >= len(rotations) && !errors.Is(err, chain.ErrDuplicateTx):
			refused = append(refused, h)
		}
	}
	n.confEngine.DropPreVerified(refused)
	return moved
}

// ProposeBlock makes the leader cut a block from the verified pool and start
// consensus on it. Empty blocks are allowed: the proposer loop never asks for
// one, a drill that must cross an activation height or a checkpoint without
// traffic does. Returns the number of transactions proposed.
//
// The block chains off the *predicted* parent: the tip of the in-flight
// proposal chain, which is the committed tip when nothing is in flight.
// This is what makes a window deeper than one correct — blocks stamped with
// the committed tip deliver stale once more than one instance overlaps. If
// the scheduler finds its prediction invalidated (view change, a foreign
// block at a predicted height), the invalidated proposals' transactions
// re-enter the pool here.
func (n *Node) ProposeBlock() (int, error) {
	if !n.replica.IsLeader() {
		return 0, consensus.ErrNotLeader
	}
	n.proposeMu.Lock()
	defer n.proposeMu.Unlock()
	view := n.replica.View()
	n.mu.Lock()
	tipHeight, tipHash := n.height, n.prevHash
	n.mu.Unlock()
	height, parent, aborted := n.sched.Predict(view, tipHeight, tipHash)
	if len(aborted) > 0 {
		n.repoolUncommitted(aborted)
	}
	txs := take(n.verified, &n.cutting, n.cfg.BlockMaxTxs)
	defer n.cutting.Add(-int64(len(txs)))
	block := &chain.Block{
		Header: chain.Header{
			Height:    height,
			PrevHash:  parent,
			Timestamp: uint64(time.Now().UnixNano()),
			Proposer:  uint32(n.endpoint.ID()),
		},
		Txs: txs,
	}
	block.ComputeTxRoot()
	// Everything in the verified pool passed signature pre-verification in
	// this node's enclave; attest that fact, sealed together with the k_tx
	// the enclave recovered on the way, so followers skip both the ECDSA
	// check and the envelope's private-key open per transaction. The enclave
	// re-checks its own cache and recomputes the root before attesting
	// (AttestPreVerified refuses otherwise), so the attestation cannot claim
	// more than the enclave actually verified. It rides outside the header,
	// leaving the block hash (and the scheduler's tracking of it) unchanged.
	block.Attestation = n.confEngine.AttestPreVerified(height, uint32(n.endpoint.ID()), txs)
	n.sched.Track(height, block.Hash(), parent, txs)
	if _, err := n.replica.Propose(block.Encode()); err != nil {
		// The proposal never entered consensus (view changed under us, or
		// the replica closed); the transactions go back to the pool instead
		// of vanishing, and the prediction is withdrawn.
		n.sched.Untrack(height, block.Hash())
		for _, tx := range txs {
			n.verified.Add(tx)
		}
		return 0, err
	}
	return len(txs), nil
}

// StartProposer makes this node produce blocks by itself: one goroutine,
// parked until a transaction is pooled, consensus delivers (a window slot
// freed) or the replica adopts a view. While the node leads, each pass
// pre-verifies one budget of the un-verified pool, then cuts blocks. A full
// block goes out while fewer than Config.PipelineDepth proposals are in
// flight (more only pile up ahead of execution and flood the network with
// retransmits). A partial one goes out only when the window is empty and no
// wake-up arrived during the pass; otherwise it waits for the in-flight
// block's delivery, which kicks the loop again. The consensus round is the
// clock: batches grow with load, and an idle window waits for nothing. stop
// halts the loop and waits.
func (n *Node) StartProposer() (stop func()) {
	quit := make(chan struct{})
	done := n.spawn(func() { n.runProposer(quit) })
	n.kick() // whatever is pooled already
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// spawn runs fn on a goroutine Kill waits for; done closes when fn has
// returned. Once Kill has begun it starts nothing and done is closed already.
func (n *Node) spawn(fn func()) <-chan struct{} {
	done := make(chan struct{})
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		close(done)
		return done
	default:
	}
	n.running.Add(1)
	go func() {
		defer n.running.Done()
		defer close(done)
		fn()
	}()
	return done
}

// kick rings the proposer loop's doorbell (a no-op when already rung).
func (n *Node) kick() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *Node) runProposer(quit <-chan struct{}) {
	for {
		select {
		case <-quit:
			return
		case <-n.stop:
			return
		case <-n.wake:
		}
		if !n.replica.IsLeader() {
			continue
		}
		n.PreVerifyPending()
		if n.unverified.Len() > 0 {
			n.kick() // more than one budget pooled: cut what this one filled, then come back
		}
		for {
			pooled := n.verified.Len()
			if pooled == 0 {
				break
			}
			inFlight := n.replica.InFlight()
			cut := mBlocksCutFull
			if pooled < n.cfg.BlockMaxTxs {
				// More is on its way (a pending wake-up) or a round is
				// running: either one comes back here, with a fuller pool.
				if len(n.wake) > 0 || inFlight > 0 {
					break
				}
				cut = mBlocksCutIdle
			} else if inFlight >= uint64(n.cfg.PipelineDepth) {
				break // onCommit kicks when a slot frees
			}
			if _, err := n.ProposeBlock(); err != nil {
				break // lost the view; adopting the next one kicks
			}
			cut.Inc()
		}
	}
}

// onCommit receives a consensus-committed block. Every replica sees
// identical inputs in identical order; the OCC scheduler preserves
// block-order semantics, so all replicas reach identical state. The block is
// handed to the execute-behind-order queue so the delivery loop returns to
// consensus while execution proceeds.
func (n *Node) onCommit(seq uint64, payload []byte) {
	defer n.kick() // a window slot freed, no-op payloads included
	block, err := chain.DecodeBlock(payload)
	if err != nil {
		return
	}
	// From delivery to application the block's transactions are accounted
	// to the executor queue, not the predicted chain. If it skipped an earlier
	// proposal of ours, the chain predicted off that one goes back to the pool.
	if aborted := n.sched.Delivered(block.Header.Height, block.Hash()); len(aborted) > 0 {
		n.repoolUncommitted(aborted)
	}
	n.executor.Submit(seq, block, payload)
}

// applyDecoded validates and executes one delivered block at the current
// chain tip, on the executor goroutine; every block the node applies comes
// through here, a caught-up one included. The height/prev-hash guard makes a
// duplicate or stale delivery a no-op. seq is the consensus sequence that
// delivered it, recorded with the block. Reports whether the chain advanced.
func (n *Node) applyDecoded(seq uint64, block *chain.Block, payload []byte) bool {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	tipHeight, tipHash := n.height, n.prevHash
	n.mu.Unlock()
	if block.Header.Height != tipHeight || block.Header.PrevHash != tipHash {
		// Stale or gapped. A stale delivery can still carry transactions
		// that never committed — a proposal cut against a tip another
		// instance advanced past. The proposer popped those from its pool at
		// proposal time; without re-pooling, its copies are gone and the
		// transactions strand in every follower's pool until leadership
		// happens to rotate. Put the uncommitted ones back (Add dedups, so
		// nodes that still hold their gossiped copies no-op).
		n.repoolUncommitted(block.Txs)
		return false
	}
	// A caught-up block was read back from a peer's store, not voted on as
	// these bytes; re-derive the tx root before trusting its contents.
	if chain.TxRoot(block.Txs) != block.Header.TxRoot {
		return false
	}

	// If the proposer's enclave attested pre-verification of this batch, one
	// ecall opens the attestation: success vouches for every signature and
	// seeds the relayed k_tx, so execution skips per-transaction ECDSA and
	// the envelopes' private-key open. The tx root above already binds the
	// attestation to exactly these transactions. A missing or bad one costs
	// nothing but its shortcut: execution falls back to opening every
	// envelope and verifying every signature itself.
	switch {
	case len(block.Attestation) == 0:
		mAttestAbsent.Inc()
	case n.confEngine.AdoptAttestation(block.Header.Height, block.Header.Proposer, block.Header.TxRoot, block.Txs, block.Attestation):
		var pub []*chain.Tx
		for _, tx := range block.Txs {
			if tx.Type == chain.TxTypePublic {
				pub = append(pub, tx)
			}
		}
		n.pubEngine.TrustPreVerified(pub)
		mAttestAccepted.Inc()
	default:
		mAttestRejected.Inc()
	}
	// Relayed keys are transport only: a one-time key gains no lifetime
	// beyond this application, so a block whose attestation carries keys is
	// stored (and later served to SPV readers and lagging peers) without it.
	if core.AttestationCarriesKeys(block.Attestation) {
		block.Attestation = nil
		payload = block.Encode()
	}

	// Ordering is complete for every transaction in the block: consensus has
	// committed it at this height.
	hashes := make([]chain.Hash, len(block.Txs))
	for i, tx := range block.Txs {
		hashes[i] = tx.Hash()
		n.tracer.Mark(string(hashes[i][:]), "order")
	}

	// A scheduled rotation whose activation height this block reaches takes
	// effect before the block executes, so the block's transactions (and
	// every later sealed write) run under the new epoch on all replicas.
	activated := n.maybeActivateEpoch(block.Header.Height)

	start := time.Now()
	batch, ok := n.executeBlock(block)
	if !ok {
		n.settleWrites(false)
		n.finishEpochTransitions(false, activated)
		return false
	}
	mBlockExecSeconds.ObserveSince(start)
	for _, h := range hashes {
		n.tracer.Mark(string(h[:]), "execute")
	}

	commitStart := time.Now()
	batch.Put(BlockKey(block.Header.Height), payload)
	seqBytes := binary.BigEndian.AppendUint64(nil, seq)
	batch.Put(blockSeqKey(block.Header.Height), seqBytes)
	batch.Put(seqTipKey, seqBytes)
	if activated {
		// The epoch marker flips in the same atomic batch as the block that
		// crossed the activation height.
		batch.Put(keEpochKey, chain.Encode(chain.Uint(n.confEngine.CurrentEpoch())))
		batch.Delete(kePendingKey)
	}
	err := n.store.WriteBatch(batch)
	n.settleWrites(err == nil)
	if err != nil {
		n.finishEpochTransitions(false, activated)
		// A failed block commit is node-fatal unless the store was closed
		// under us by a clean shutdown: the WAL's durability is unknown, so
		// continuing would eventually acknowledge commits that a power cut
		// silently discards. Fail-stop and let recovery sort out the disk.
		if !errors.Is(err, storage.ErrClosed) {
			n.fatalStore(fmt.Errorf("block %d commit: %w", block.Header.Height, err))
		}
		return false
	}
	n.finishEpochTransitions(true, activated)
	mBlockCommitSeconds.ObserveSince(commitStart)

	n.setTip(block.Header.Height+1, block.Hash())
	// The committed tip advanced: consume the predicted chain's head if
	// this was the predicted block, or abort the whole in-flight suffix if
	// a different block landed at a predicted height (a view change winner).
	// Aborted transactions re-enter the pool; execution
	// dedup keeps any that later committed elsewhere from running twice.
	if aborted := n.sched.Applied(block.Header.Height, block.Hash()); len(aborted) > 0 {
		n.repoolUncommitted(aborted)
	}
	// Committed transactions leave this node's pools (followers hold their
	// own gossiped copies), and their pre-verification metadata leaves the
	// enclave.
	for _, h := range hashes {
		n.unverified.Remove(h)
		n.verified.Remove(h)
		key := string(h[:])
		n.tracer.Mark(key, "commit")
		n.tracer.End(key)
	}
	n.confEngine.DropPreVerified(hashes)
	n.pubEngine.DropPreVerified(hashes)
	mBlocks.Inc()
	mTxsCommitted.Add(uint64(len(block.Txs)))
	// Receipt notification: serving layers (gateway long-polls) learn what
	// this block committed. Hooks run outside the state lock so they may
	// call back into Receipt/ProveTx.
	n.mu.Lock()
	hooks := make([]func(uint64, []chain.Hash), 0, len(n.commitHooks))
	for _, fn := range n.commitHooks {
		hooks = append(hooks, fn)
	}
	n.mu.Unlock()
	for _, fn := range hooks {
		fn(block.Header.Height, hashes)
	}
	// Still under applyMu: the store is quiescent, so a due checkpoint sees
	// exactly the state after this block.
	n.maybeCheckpoint()
	return true
}

// setTip moves the chain tip (a block applied, a snapshot installed) and wakes
// WaitHeight parkers. Taking the state lock here, after the store holds the
// block's receipts and before its pool sweep, is what promoteVerified leans on.
func (n *Node) setTip(height uint64, hash chain.Hash) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.height, n.prevHash = height, hash
	close(n.heightCh)
	n.heightCh = make(chan struct{})
}

// maybeCheckpoint exports a snapshot when the chain crosses a checkpoint
// boundary, then anchors block pruning at it. Caller holds applyMu.
func (n *Node) maybeCheckpoint() {
	interval := n.cfg.CheckpointInterval
	if interval == 0 {
		return
	}
	n.mu.Lock()
	height, tipHash := n.height, n.prevHash
	n.mu.Unlock()
	if height == 0 || height%interval != 0 || n.snapshots.LatestHeight() >= height {
		return
	}
	start := time.Now()
	cp, err := snapshot.Export(n.store, height, tipHash, n.confEngine.CheckpointMACKey(), n.confEngine.CurrentEpoch(), n.cfg.SnapshotChunkBytes)
	if err != nil {
		return
	}
	mCheckpointSeconds.ObserveSince(start)
	n.snapshots.Set(cp)
	n.pruneBlocks(height)
}

// settleWrites ends the applied block's pending writes in both engines:
// landed reports that its batch reached the store.
func (n *Node) settleWrites(landed bool) {
	n.confEngine.SettleWrites(landed)
	n.pubEngine.SettleWrites(landed)
}

// engineFor routes a transaction to its engine.
func (n *Node) engineFor(tx *chain.Tx) *core.Engine {
	if tx.Type == chain.TxTypeConfidential {
		return n.confEngine
	}
	return n.pubEngine
}

// executeBlock runs a block's transactions with optimistic concurrency: one
// pass over the lanes that looks every transaction up and, with OCC lanes,
// executes the new ones against the pre-block snapshot; then an in-order
// validation pass that executes any transaction the first pass did not, and
// re-executes any whose reads overlap an earlier transaction's writes.
// Smart-contract parallel execution is the platform feature behind Figure
// 11's 4-way ≈ 2× result. ok is false when a committed lookup failed: the
// block is abandoned and fatalStore has the node.
func (n *Node) executeBlock(block *chain.Block) (batch *storage.Batch, ok bool) {
	txs := block.Txs
	results := make([]*core.ExecResult, len(txs))
	// Deduplicate at execution: a client retrying under faults can land the
	// same transaction in two blocks (the first possibly via a different
	// leader). Every replica holds a receipt exactly for the transactions the
	// chain executed, a snapshot-joined one included, so all of them skip the
	// same hashes and state stays convergent. The lookups ride the lanes like
	// the block's other cold reads. Each lane reads only the pre-block
	// snapshot, so worker count cannot change results — the sequential
	// validation pass below is the only place effects become visible, in
	// block order, on every replica. Without lanes there is nothing to
	// speculate with: that pass executes every transaction once, in order.
	skip := make([]bool, len(txs))
	speculate := n.cfg.ExecWorkers > 1 && len(txs) > 1
	var skipped, failed atomic.Uint64
	pipeline.RunLanes(max(n.cfg.ExecWorkers, 1), len(txs), func(i int) {
		switch err := n.uncommitted(txs[i].Hash()); {
		case err == ErrAlreadyCommitted:
			skip[i] = true
			skipped.Add(1)
		case err != nil:
			failed.Add(1)
		case speculate && txs[i].Type != chain.TxTypeGovernance:
			if res, err := n.engineFor(txs[i]).Execute(txs[i]); err == nil {
				results[i] = res
			}
		}
	})
	if failed.Load() > 0 {
		return nil, false
	}
	mDedupSkips.Add(skipped.Load())

	// Validation pass: block order wins; conflicting speculative results
	// are discarded and re-executed against the updated view. AppendWrites
	// both fills the durable batch and makes the plaintext writes readable
	// as the engines' pending writes, so later (re-)executions in the block
	// observe earlier effects.
	written := make(map[string]struct{})
	batch = &storage.Batch{}
	height := binary.BigEndian.AppendUint64(nil, block.Header.Height) // each executed transaction's txBlockKey record
	var speculated, conflicts uint64
	for i, tx := range txs {
		if skip[i] {
			continue
		}
		res := results[i]
		if res != nil {
			speculated++
		}
		if tx.Type == chain.TxTypeGovernance {
			// Applied by the platform, not a contract engine, here in block
			// order: its validity depends only on serialized chain state, and
			// its conflict sets are empty by construction.
			res = n.applyGovernance(tx, block.Header.Height)
		} else if res == nil || intersects(res.ReadSet, written) {
			if res != nil {
				// Speculative result read state an earlier transaction in
				// this block wrote: discard and re-execute in order.
				conflicts++
			}
			var err error
			if res, err = n.engineFor(tx).Execute(tx); err != nil {
				continue
			}
		}
		if err := res.AppendWrites(batch); err != nil {
			continue
		}
		batch.Put(txBlockKey(res.TxHash), height)
		for k := range res.WriteKeys {
			written[k] = struct{}{}
		}
	}
	mOCCSpeculated.Add(speculated)
	mOCCConflicts.Add(conflicts)
	return batch, true
}

func intersects(reads map[string]struct{}, writes map[string]struct{}) bool {
	if len(reads) == 0 || len(writes) == 0 {
		return false
	}
	small, large := reads, writes
	if len(writes) < len(reads) {
		small, large = writes, reads
	}
	for k := range small {
		if _, ok := large[k]; ok {
			return true
		}
	}
	return false
}

// Receipt reads a committed transaction's receipt back from the store, the
// only place the node keeps one: decoded as stored for a public or governance
// transaction (ktx nil), opened with the owner's one-time key for a
// confidential one. ErrNotFound until the transaction commits.
func (n *Node) Receipt(txHash chain.Hash, ktx []byte) (*chain.Receipt, error) {
	stored, found, err := n.StoredReceipt(txHash)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	if ktx == nil {
		return chain.DecodeReceipt(stored)
	}
	return core.OpenReceipt(stored, ktx, txHash)
}

// StoredReceipt fetches the persisted receipt bytes (sealed under k_tx for
// confidential transactions) — what an untrusted party reading the database
// would see.
func (n *Node) StoredReceipt(txHash chain.Hash) ([]byte, bool, error) {
	return core.ReadReceipt(n.store, txHash)
}

// WaitHeight blocks until the node has committed at least h blocks. The
// wait parks on a notification channel that setTip closes on every
// height advance — no polling.
func (n *Node) WaitHeight(h uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		height, ch := n.height, n.heightCh
		n.mu.Unlock()
		if height >= h {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("node %d: timeout waiting for height %d (at %d)", n.ID(), h, n.Height())
		}
	}
}

// ErrNotLeader re-exports the consensus error for callers.
var ErrNotLeader = consensus.ErrNotLeader

// Replica exposes the consensus replica (tests).
func (n *Node) Replica() *consensus.Replica { return n.replica }

// Endpoint exposes the p2p endpoint (tests, fault injection).
func (n *Node) Endpoint() *p2p.Endpoint { return n.endpoint }

// VerifiedPoolLen reports the verified pool backlog.
func (n *Node) VerifiedPoolLen() int { return n.verified.Len() }

// UnverifiedPoolLen reports the un-verified pool backlog.
func (n *Node) UnverifiedPoolLen() int { return n.unverified.Len() }

// Close stops the node's loops, the consensus replica, the endpoint and the
// store. Idempotent.
func (n *Node) Close() {
	n.Kill()
	n.storeOnce.Do(func() {
		n.store.Close()
	})
}

// Kill stops the node WITHOUT closing the store — the crash path. A real
// crash never runs shutdown hooks: the store gets no final flush, no clean
// WAL close, no sstable publish. The crash harness uses Kill after freezing
// the fault filesystem so recovery sees exactly what a power cut leaves;
// fatalStore uses it because a node whose disk failed must stop
// participating but must not touch the store further. Idempotent, and Close
// after Kill still releases the store.
func (n *Node) Kill() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		close(n.stop) // under the lock spawn checks it with, so Wait sees every Add
		n.mu.Unlock()
		// The node's own goroutines first, so no ProposeBlock races the dying
		// replica. Then: unblock a delivery loop parked in Submit and wait out
		// the in-progress block application, so replica.Close below cannot
		// deadlock against it. Replica and endpoint wait for their loops too,
		// so the store sees no new writes after Kill returns.
		n.running.Wait()
		n.executor.Close()
		n.replica.Close()
		n.endpoint.Close()
	})
}

// fatalStore records the node's first unrecoverable storage error and kills
// the node asynchronously (the caller is often the executor goroutine, which
// Kill waits on).
func (n *Node) fatalStore(err error) {
	n.fatalMu.Lock()
	first := n.fatalErr == nil
	if first {
		n.fatalErr = err
	}
	n.fatalMu.Unlock()
	if first {
		mStoreFatal.Inc()
		go n.Kill()
	}
}

// Failed returns the storage error that killed this node, or nil while it is
// healthy.
func (n *Node) Failed() error {
	n.fatalMu.Lock()
	defer n.fatalMu.Unlock()
	return n.fatalErr
}

// crashHit fires the named crash point if armed. It reports true when the
// node just crashed (or already had): the caller must abandon its operation
// immediately — the filesystem underneath is frozen.
func (n *Node) crashHit(point string) bool {
	if err := n.cfg.crash.Hit(point); err != nil {
		n.fatalStore(fmt.Errorf("%s: %w", point, err))
		return true
	}
	return false
}
