// Package consensus implements the ordering phase of the platform: a
// PBFT-style three-phase protocol (pre-prepare / prepare / commit) over the
// simulated p2p network. Public and confidential transactions are ordered
// together here — ordering never needs to see inside an envelope, which is
// what lets CONFIDE stay loosely coupled to the platform.
//
// The implementation targets the paper's deployment envelope: a fixed
// replica set, tolerance of f = (n-1)/3 fail-stop replicas, and pipelined
// block proposals, on lossy public-network links. Liveness under faults is
// automatic (see liveness.go): per-instance progress timers vote view
// changes on leader silence, unacknowledged protocol messages retransmit
// with exponential backoff, replicas that missed a pre-prepare fetch it by
// sequence from peers, and replicas that fall behind (crash, partition)
// fetch committed sequences from what peers' applications kept
// (Options.ReadCommitted). View change implements leader
// crash-failover: when 2f+1 replicas vote for a higher view, everyone
// adopts it and the round-robin successor leads. Each vote carries the
// voter's prepared certificates (sequence, prepare-view, payload); the new
// leader merges the quorum's certificates — highest prepare-view wins per
// sequence — re-proposes them at their original sequences, and fills any
// certificate-free gap below its pipeline tip with a no-op, so pipelined
// commits that outran an abandoned sequence can still deliver. Carriers
// refuse conflicting digests, which keeps a payload that may have
// committed somewhere from being replaced under fail-stop faults. The
// certificates are unauthenticated (fail-stop model); Byzantine-proof
// signed new-view certificates remain out of scope.
package consensus

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/p2p"
)

// Topics used on the wire.
const (
	topicPrePrepare = "pbft/pre-prepare"
	topicPrepare    = "pbft/prepare"
	topicCommit     = "pbft/commit"
	topicViewChange = "pbft/view-change"
	topicStatus     = "pbft/status"
	topicFetch      = "pbft/fetch"
	topicFetchResp  = "pbft/fetch-resp"
)

// Message-type tags carried by every wire message, so payloads are
// self-describing and a message replayed on the wrong topic is rejected.
const (
	msgPrePrepare = 1 + iota
	msgPrepare
	msgCommit
	msgViewChange
	msgStatus         // heartbeat: view + delivered count
	msgFetch          // request instances/committed payloads from seq
	msgFetchResp      // in-flight payload replay (pre-prepare contents)
	msgFetchCommitted // committed payload read back by the responder's application
	msgViewAdopted    // view-change vote re-sent by a replica already in that view
)

// Options tunes a replica's liveness machinery. The zero value selects
// production-shaped defaults; tests and the chaos harness shrink them.
type Options struct {
	// ViewTimeout is how long pending work may stall (no delivery) before
	// this replica votes a view change. Default 1s.
	ViewTimeout time.Duration
	// RetransmitInterval is the initial resend period for unacknowledged
	// messages; it backs off exponentially per instance. Default 50ms.
	RetransmitInterval time.Duration
	// RetransmitMax caps the backoff. Default 500ms.
	RetransmitMax time.Duration
	// HeartbeatInterval paces the status broadcast that drives view and
	// delivery catch-up. Default 100ms.
	HeartbeatInterval time.Duration
	// WorkPending, when set, reports whether the application has work an
	// honest leader should be ordering (e.g. non-empty transaction pools).
	// It gates the leader-silence timer: without it only in-flight
	// instances arm the timer.
	WorkPending func() bool
	// ViewAdopted, when set, is called every time this replica moves to a new
	// view (the application may lead now). Like WorkPending it runs with the
	// replica's lock held: it must only signal, never block or call back.
	ViewAdopted func()
	// ReadCommitted, when set, serves a lagging peer's catch-up fetch: the
	// payload this replica delivered at seq, read back from wherever the
	// application keeps what committed, or nil when it cannot serve it. It
	// runs without the replica's lock. Unset, the replica serves no committed
	// payloads: it keeps none of its own.
	ReadCommitted func(seq uint64) []byte
}

func (o Options) withDefaults() Options {
	if o.ViewTimeout == 0 {
		o.ViewTimeout = time.Second
	}
	if o.RetransmitInterval == 0 {
		o.RetransmitInterval = 50 * time.Millisecond
	}
	if o.RetransmitMax == 0 {
		o.RetransmitMax = 500 * time.Millisecond
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	return o
}

// CommitFn is called exactly once per sequence number, in order, with the
// committed payload.
type CommitFn func(seq uint64, payload []byte)

// Replica is one PBFT participant.
type Replica struct {
	id       p2p.NodeID
	n        int
	f        int
	endpoint *p2p.Endpoint
	onCommit CommitFn
	opts     Options

	mu        sync.Mutex
	view      uint64
	nextSeq   uint64 // next sequence the leader may propose
	delivered uint64 // next sequence to deliver
	instances map[uint64]*instance
	pending   map[uint64][]byte // committed out of order, awaiting delivery
	// viewVotes[v] holds, per replica that voted to move to view v, the
	// prepared certificates shipped inside its vote.
	viewVotes map[uint64]map[p2p.NodeID][]vcEntry
	votedFor  uint64 // highest view this replica has voted for
	// certView is the highest view this replica adopted with a full 2f+1
	// vote quorum in hand (vs. jumping forward on heartbeat evidence). Only
	// a leader whose view matches certView may gap-fill with no-ops: the
	// quorum's certificates prove the gap holds no prepared payload.
	certView uint64
	closed   bool

	// Liveness state (see liveness.go).
	carry         map[uint64]carryEntry
	peerViews     map[p2p.NodeID]uint64 // highest view seen per peer
	peerDelivered map[p2p.NodeID]uint64 // highest delivered seen per peer
	lastProgress  time.Time
	lastHeartbeat time.Time
	vcLastSent    time.Time
	vcInterval    time.Duration
	fetchLastSent time.Time
	fetchInterval time.Duration
	fetchFrom     uint64 // first sequence of the last delivery-gap fetch
	viewChanges   uint64
	deliveredCh   chan struct{} // closed+replaced on every delivery
	stop          chan struct{}
	done          chan struct{} // closed when the liveness loop has exited
}

// carryEntry is a locally prepared (commit-voted) payload carried across a
// view change: the new leader re-proposes it at the same sequence, and
// carriers refuse conflicting digests for that sequence. view records the
// view in which the payload prepared, so merges keep the newest.
type carryEntry struct {
	digest  [32]byte
	view    uint64
	payload []byte
}

// vcEntry is one prepared certificate inside a view-change vote.
type vcEntry struct {
	seq     uint64
	view    uint64 // view in which the payload prepared
	payload []byte
}

// instance tracks one sequence number's progress.
type instance struct {
	digest     [32]byte
	payload    []byte
	havePre    bool
	prepares   map[p2p.NodeID][32]byte
	commits    map[p2p.NodeID][32]byte
	sentCommit bool
	committed  bool
	// Retransmission pacing.
	lastSent time.Time
	resendIn time.Duration
	// prepares/commits double as the early-vote buffer: votes that arrive
	// before the pre-prepare (the network reorders freely) sit here.
}

// ErrNotLeader is returned when a non-leader proposes.
var ErrNotLeader = errors.New("consensus: not the leader for this view")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("consensus: replica closed")

// NewReplicaWithOptions wires a replica to its endpoint. n is the total
// replica count; ids must be 0..n-1. onCommit receives committed payloads in
// sequence order; zero fields of opts take the default liveness tuning.
func NewReplicaWithOptions(endpoint *p2p.Endpoint, n int, onCommit CommitFn, opts Options) *Replica {
	r := &Replica{
		id:            endpoint.ID(),
		n:             n,
		f:             (n - 1) / 3,
		endpoint:      endpoint,
		onCommit:      onCommit,
		opts:          opts.withDefaults(),
		instances:     make(map[uint64]*instance),
		pending:       make(map[uint64][]byte),
		viewVotes:     make(map[uint64]map[p2p.NodeID][]vcEntry),
		carry:         make(map[uint64]carryEntry),
		peerViews:     make(map[p2p.NodeID]uint64),
		peerDelivered: make(map[p2p.NodeID]uint64),
		lastProgress:  time.Now(),
		deliveredCh:   make(chan struct{}),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	r.vcInterval = r.opts.RetransmitInterval
	r.fetchInterval = r.opts.RetransmitInterval
	endpoint.Subscribe(topicPrePrepare, r.onPrePrepare)
	endpoint.Subscribe(topicPrepare, r.onPrepare)
	endpoint.Subscribe(topicCommit, r.onCommit3)
	endpoint.Subscribe(topicViewChange, r.onViewChange)
	endpoint.Subscribe(topicStatus, r.onStatus)
	endpoint.Subscribe(topicFetch, r.onFetch)
	endpoint.Subscribe(topicFetchResp, r.onFetchResp)
	go r.run()
	return r
}

// View returns the current view number.
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// ViewChanges reports how many view switches this replica has adopted.
func (r *Replica) ViewChanges() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewChanges
}

// RequestViewChange votes to replace the current leader (e.g. after a
// proposal timeout). The view switches once 2f+1 replicas vote. The
// progress timer calls this automatically on leader silence; it remains
// public for operator tooling.
func (r *Replica) RequestViewChange() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	target := r.view + 1
	if r.votedFor >= target {
		r.mu.Unlock()
		return
	}
	vote := r.castViewVote(target)
	r.mu.Unlock()
	r.endpoint.Broadcast(topicViewChange, vote)
	r.mu.Lock()
	r.maybeSwitchView(target)
	r.mu.Unlock()
}

func (r *Replica) onViewChange(m p2p.Message) {
	typ, target, _, _, payload, err := decodeMsg(m.Data)
	if err != nil || (typ != msgViewChange && typ != msgViewAdopted) {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if target <= r.view {
		// The sender still campaigns for a view this replica already left
		// behind. It may have lost this replica's vote for it, and votes
		// retransmit only for votedFor, so that vote is never resent: a
		// quorum that adopted the view without it strands the sender. Answer
		// with a vote for the current view. Answers are never answered, so
		// two replicas in the same view cannot bounce them.
		var answer []byte
		if typ == msgViewChange && r.view > 0 {
			answer = encodeMsg(msgViewAdopted, r.view, 0, zeroDigest[:], encodeVCEntries(r.preparedSet()))
		}
		r.mu.Unlock()
		if answer != nil {
			r.endpoint.Send(m.From, topicViewChange, answer)
		}
		return
	}
	r.recordViewVote(target, m.From, decodeVCEntries(payload))
	// Join the view change once f+1 others ask for it (standard liveness
	// amplification), so one slow timer does not stall the switch.
	join := len(r.viewVotes[target]) >= r.f+1 && r.votedFor < target
	var vote []byte
	if join {
		vote = r.castViewVote(target)
	}
	r.mu.Unlock()
	if join {
		r.endpoint.Broadcast(topicViewChange, vote)
	}
	r.mu.Lock()
	r.maybeSwitchView(target)
	r.mu.Unlock()
}

// castViewVote makes this replica a voter for view target, restarts the
// vote's retransmission backoff and returns the encoded vote for the caller
// to broadcast once it has unlocked. Caller holds r.mu.
func (r *Replica) castViewVote(target uint64) []byte {
	r.votedFor = target
	r.recordViewVote(target, r.id, nil)
	r.vcLastSent = time.Now()
	r.vcInterval = r.opts.RetransmitInterval
	return r.viewVote()
}

// viewVote encodes this replica's outstanding vote (for votedFor) with its
// prepared certificates as they stand now. Caller holds r.mu.
func (r *Replica) viewVote() []byte {
	return encodeMsg(msgViewChange, r.votedFor, 0, zeroDigest[:], encodeVCEntries(r.preparedSet()))
}

// recordViewVote tallies a vote with the prepared certificates it shipped.
// The replica's own vote records nil — its local carry/instances are merged
// directly at adoption. Caller holds r.mu.
func (r *Replica) recordViewVote(target uint64, from p2p.NodeID, entries []vcEntry) {
	votes := r.viewVotes[target]
	if votes == nil {
		votes = make(map[p2p.NodeID][]vcEntry)
		r.viewVotes[target] = votes
	}
	if _, seen := votes[from]; !seen || entries != nil {
		votes[from] = entries
	}
}

// preparedSet collects this replica's prepared-but-undelivered payloads —
// current carry plus commit-voted instances — for a view-change vote.
// Caller holds r.mu.
func (r *Replica) preparedSet() []vcEntry {
	var entries []vcEntry
	for seq, c := range r.carry {
		if seq >= r.delivered {
			entries = append(entries, vcEntry{seq: seq, view: c.view, payload: c.payload})
		}
	}
	for seq, inst := range r.instances {
		if seq >= r.delivered && inst.sentCommit && !inst.committed {
			entries = append(entries, vcEntry{seq: seq, view: r.view, payload: inst.payload})
		}
	}
	return entries
}

// maybeSwitchView adopts the target view on a 2f+1 quorum, first merging
// the quorum's prepared certificates into the carry set (highest
// prepare-view wins per sequence). Any 2f+1 votes intersect any commit
// quorum in at least one replica, so every payload that may have committed
// is represented — which is what makes the leader's no-op gap-fill safe.
// Caller holds r.mu.
func (r *Replica) maybeSwitchView(target uint64) {
	if target <= r.view || len(r.viewVotes[target]) < r.Quorum() {
		return
	}
	for _, entries := range r.viewVotes[target] {
		for _, e := range entries {
			if e.seq < r.delivered {
				continue
			}
			if c, held := r.carry[e.seq]; held && c.view >= e.view {
				continue
			}
			r.carry[e.seq] = carryEntry{
				digest:  sha256.Sum256(e.payload),
				view:    e.view,
				payload: append([]byte(nil), e.payload...),
			}
		}
	}
	r.adoptView(target)
	r.certView = target
}

// adoptView moves to view v: in-flight unprepared instances are abandoned
// (their payloads remain in the application's pools and the new leader
// re-proposes them), locally prepared ones are carried for re-proposal at
// the same sequence, and committed-but-undelivered payloads stay pending.
// All vote state for views ≤ v is pruned. Caller holds r.mu.
func (r *Replica) adoptView(v uint64) {
	if v <= r.view {
		return
	}
	for seq, inst := range r.instances {
		if seq >= r.delivered && inst.sentCommit && !inst.committed {
			if c, held := r.carry[seq]; held && c.view > r.view {
				continue // a merged certificate from a newer view wins
			}
			r.carry[seq] = carryEntry{digest: inst.digest, view: r.view, payload: inst.payload}
		}
	}
	r.view = v
	r.viewChanges++
	mViewChanges.Inc()
	if r.votedFor < v {
		r.votedFor = v
	}
	r.instances = make(map[uint64]*instance)
	r.nextSeq = r.delivered
	r.liftNextSeq()
	// Prune vote maps for every view at or below the adopted one — stale
	// lower-view votes can never form a quorum again.
	for target := range r.viewVotes {
		if target <= v {
			delete(r.viewVotes, target)
		}
	}
	r.lastProgress = time.Now()
	if r.opts.ViewAdopted != nil {
		r.opts.ViewAdopted()
	}
}

// liftNextSeq raises nextSeq past every committed-but-undelivered and carried
// sequence, so a fresh proposal never lands on one. Caller holds r.mu.
func (r *Replica) liftNextSeq() {
	for seq := range r.pending {
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	for seq := range r.carry {
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
}

// Leader returns the current view's leader id.
func (r *Replica) Leader() p2p.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return p2p.NodeID(r.view % uint64(r.n))
}

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader() == r.id }

// Quorum returns the vote threshold (2f+1, counting the replica itself).
func (r *Replica) Quorum() int { return 2*r.f + 1 }

// Propose starts agreement on payload and returns its sequence number.
// Only the leader may propose; proposals pipeline (no need to wait for the
// previous commit).
func (r *Replica) Propose(payload []byte) (uint64, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	if p2p.NodeID(r.view%uint64(r.n)) != r.id {
		r.mu.Unlock()
		return 0, ErrNotLeader
	}
	seq := r.nextSeq
	r.nextSeq++
	digest := sha256.Sum256(payload)
	inst := r.getInstance(seq)
	inst.digest = digest
	inst.payload = append([]byte(nil), payload...)
	inst.havePre = true
	// The leader's own pre-prepare counts as its prepare vote.
	inst.prepares[r.id] = digest
	view := r.view
	r.mu.Unlock()

	mProposals.Inc()
	msg := encodeMsg(msgPrePrepare, view, seq, digest[:], payload)
	r.endpoint.Broadcast(topicPrePrepare, msg)
	// A single-replica network commits immediately.
	r.mu.Lock()
	r.maybeAdvance(seq, inst)
	r.mu.Unlock()
	return seq, nil
}

// getInstance returns (creating if needed) the instance for seq. Caller
// holds r.mu.
func (r *Replica) getInstance(seq uint64) *instance {
	inst, ok := r.instances[seq]
	if !ok {
		inst = &instance{
			prepares: make(map[p2p.NodeID][32]byte),
			commits:  make(map[p2p.NodeID][32]byte),
			lastSent: time.Now(),
			resendIn: r.opts.RetransmitInterval,
		}
		r.instances[seq] = inst
	}
	return inst
}

func (r *Replica) onPrePrepare(m p2p.Message) {
	typ, view, seq, digest, payload, err := decodeMsg(m.Data)
	if err != nil || typ != msgPrePrepare {
		return
	}
	r.mu.Lock()
	if r.closed || view != r.view || seq < r.delivered {
		r.mu.Unlock()
		return
	}
	if m.From != p2p.NodeID(view%uint64(r.n)) {
		r.mu.Unlock()
		return // only the leader may pre-prepare
	}
	if sha256.Sum256(payload) != digest {
		r.mu.Unlock()
		return // digest mismatch: discard
	}
	if c, held := r.carry[seq]; held && c.digest != digest {
		r.mu.Unlock()
		return // conflicts with a payload this replica already commit-voted
	}
	inst := r.getInstance(seq)
	if inst.havePre {
		r.mu.Unlock()
		return // duplicate (first pre-prepare wins within a view)
	}
	inst.havePre = true
	inst.digest = digest
	inst.payload = append([]byte(nil), payload...)
	// The leader's pre-prepare doubles as its prepare vote, and this
	// replica's prepare broadcast counts for itself.
	inst.prepares[m.From] = digest
	inst.prepares[r.id] = digest
	if seq >= r.nextSeq {
		r.nextSeq = seq + 1
	}
	r.mu.Unlock()

	r.endpoint.Broadcast(topicPrepare, encodeMsg(msgPrepare, view, seq, digest[:], nil))
	r.mu.Lock()
	r.maybeAdvance(seq, inst)
	r.mu.Unlock()
}

func (r *Replica) onPrepare(m p2p.Message) {
	typ, view, seq, digest, _, err := decodeMsg(m.Data)
	if err != nil || typ != msgPrepare {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || view != r.view || seq < r.delivered {
		return
	}
	inst := r.getInstance(seq)
	inst.prepares[m.From] = digest
	r.maybeAdvance(seq, inst)
}

func (r *Replica) onCommit3(m p2p.Message) {
	typ, view, seq, digest, _, err := decodeMsg(m.Data)
	if err != nil || typ != msgCommit {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || view != r.view || seq < r.delivered {
		return
	}
	inst := r.getInstance(seq)
	inst.commits[m.From] = digest
	r.maybeAdvance(seq, inst)
}

// maybeAdvance moves an instance through prepared → committed → delivered.
// Caller holds r.mu.
func (r *Replica) maybeAdvance(seq uint64, inst *instance) {
	if !inst.havePre {
		return
	}
	// Count matching prepare votes.
	if !inst.sentCommit && r.countMatching(inst.prepares, inst.digest) >= r.Quorum() {
		inst.sentCommit = true
		inst.commits[r.id] = inst.digest
		view := r.view
		digest := inst.digest
		// Broadcast outside the lock.
		r.mu.Unlock()
		r.endpoint.Broadcast(topicCommit, encodeMsg(msgCommit, view, seq, digest[:], nil))
		r.mu.Lock()
	}
	if !inst.committed && inst.sentCommit && r.countMatching(inst.commits, inst.digest) >= r.Quorum() {
		inst.committed = true
		r.pending[seq] = inst.payload
		r.deliverReady()
	}
	// Single-node special case: quorum of 1 is satisfied instantly.
	if r.n == 1 && !inst.committed {
		inst.committed = true
		r.pending[seq] = inst.payload
		r.deliverReady()
	}
}

func (r *Replica) countMatching(votes map[p2p.NodeID][32]byte, digest [32]byte) int {
	count := 0
	for _, d := range votes {
		if d == digest {
			count++
		}
	}
	return count
}

// deliverReady hands consecutive committed sequences to the application.
// Caller holds r.mu.
func (r *Replica) deliverReady() {
	for {
		payload, ok := r.pending[r.delivered]
		if !ok {
			return
		}
		seq := r.delivered
		delete(r.pending, seq)
		delete(r.instances, seq)
		delete(r.carry, seq)
		r.delivered++
		r.recordDelivered()
		cb := r.onCommit
		r.mu.Unlock()
		if cb != nil {
			cb(seq, payload)
		}
		r.mu.Lock()
	}
}

// recordDelivered maintains the progress clock and waiter notification after
// one delivery. Caller holds r.mu.
func (r *Replica) recordDelivered() {
	mDelivered.Inc()
	r.lastProgress = time.Now()
	r.fetchInterval = r.opts.RetransmitInterval
	close(r.deliveredCh)
	r.deliveredCh = make(chan struct{})
}

// AdvanceTo fast-forwards the delivery counter past sequences the application
// already holds (a recovered store, a snapshot install). State for
// skipped sequences is pruned; payloads already committed at or beyond seq
// become deliverable.
func (r *Replica) AdvanceTo(seq uint64) {
	r.mu.Lock()
	if seq <= r.delivered {
		r.mu.Unlock()
		return
	}
	for s := range r.instances {
		if s < seq {
			delete(r.instances, s)
		}
	}
	for s := range r.pending {
		if s < seq {
			delete(r.pending, s)
		}
	}
	for s := range r.carry {
		if s < seq {
			delete(r.carry, s)
		}
	}
	r.delivered = seq
	if r.nextSeq < seq {
		r.nextSeq = seq
	}
	r.liftNextSeq()
	r.lastProgress = time.Now()
	r.fetchInterval = r.opts.RetransmitInterval
	close(r.deliveredCh)
	r.deliveredCh = make(chan struct{})
	r.deliverReady()
	r.mu.Unlock()
}

// Delivered reports how many sequences have been handed to the application.
func (r *Replica) Delivered() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivered
}

// InFlight reports how many proposed sequences have not yet been delivered
// — the depth of the consensus pipeline. A leader that keeps proposing far
// ahead of delivery buys nothing but retransmit traffic; callers use this to
// pace proposals against application progress.
func (r *Replica) InFlight() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextSeq < r.delivered {
		return 0
	}
	return r.nextSeq - r.delivered
}

// Close stops processing and waits for the liveness loop to exit.
func (r *Replica) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
}

// WaitDelivered blocks until the replica has delivered at least target
// sequences or the timeout elapses.
func (r *Replica) WaitDelivered(target uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		r.mu.Lock()
		if r.delivered >= target {
			r.mu.Unlock()
			return nil
		}
		ch := r.deliveredCh
		r.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("consensus: timeout waiting for %d deliveries (have %d)", target, r.Delivered())
		}
	}
}

var zeroDigest [32]byte

// Message layout: type(1) view(8) seq(8) digest(32) payload(rest), via
// chain RLP for canonical framing. Control messages (view-change, status,
// fetch) carry a zero digest.
func encodeMsg(typ uint64, view, seq uint64, digest, payload []byte) []byte {
	return chain.Encode(chain.List(
		chain.Uint(typ),
		chain.Uint(view),
		chain.Uint(seq),
		chain.Bytes(digest),
		chain.Bytes(payload),
	))
}

func decodeMsg(data []byte) (typ, view, seq uint64, digest [32]byte, payload []byte, err error) {
	it, err := chain.Decode(data)
	if err != nil {
		return 0, 0, 0, digest, nil, err
	}
	if !it.IsList || len(it.List) != 5 {
		return 0, 0, 0, digest, nil, errors.New("consensus: malformed message")
	}
	if typ, err = it.List[0].AsUint(); err != nil {
		return
	}
	if typ < msgPrePrepare || typ > msgViewAdopted {
		return 0, 0, 0, digest, nil, errors.New("consensus: unknown message type")
	}
	if view, err = it.List[1].AsUint(); err != nil {
		return
	}
	if seq, err = it.List[2].AsUint(); err != nil {
		return
	}
	if len(it.List[3].Str) != 32 {
		return 0, 0, 0, digest, nil, errors.New("consensus: bad digest length")
	}
	copy(digest[:], it.List[3].Str)
	payload = it.List[4].Str
	return typ, view, seq, digest, payload, nil
}

// encodeVCEntries frames prepared certificates for a view-change vote:
// a list of (seq, prepare-view, payload) triples.
func encodeVCEntries(entries []vcEntry) []byte {
	if len(entries) == 0 {
		return nil
	}
	items := make([]chain.Item, len(entries))
	for i, e := range entries {
		items[i] = chain.List(chain.Uint(e.seq), chain.Uint(e.view), chain.Bytes(e.payload))
	}
	return chain.Encode(chain.List(items...))
}

func decodeVCEntries(data []byte) []vcEntry {
	if len(data) == 0 {
		return nil
	}
	it, err := chain.Decode(data)
	if err != nil || !it.IsList {
		return nil
	}
	var entries []vcEntry
	for _, e := range it.List {
		if !e.IsList || len(e.List) != 3 {
			continue
		}
		seq, errSeq := e.List[0].AsUint()
		view, errView := e.List[1].AsUint()
		if errSeq != nil || errView != nil {
			continue
		}
		entries = append(entries, vcEntry{seq: seq, view: view, payload: e.List[2].Str})
	}
	return entries
}
