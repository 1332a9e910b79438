package consensus

import (
	"crypto/sha256"
	"sort"
	"time"

	"confide/internal/p2p"
)

// This file contains the machinery that keeps PBFT live on a lossy,
// partitioned network with crash/recovery faults:
//
//   - a progress timer that votes a view change when pending work stalls
//     under a silent leader (no manual RequestViewChange needed);
//   - periodic retransmission, with per-instance exponential backoff, of
//     this replica's unacknowledged pre-prepares / prepares / commits and
//     of its outstanding view-change vote;
//   - an answer to stale view-change votes: a replica already in view v
//     replies to a vote for a view ≤ v with its vote for v, so a peer that
//     lost this replica's vote for v before the quorum moved on can still
//     gather the quorum and adopt v;
//   - a status heartbeat (view + delivered count). f+1 peers observed at a
//     higher view is proof a quorum adopted it (at least one of the f+1 is
//     correct), so a rejoining replica jumps forward without re-running
//     the vote; a peer with a higher delivered count is the target for a
//     catch-up fetch;
//   - a fetch-by-sequence protocol: replicas that missed a pre-prepare
//     (but see prepare/commit votes for it) or whole committed sequences
//     (crash, partition) pull them from peers. In-flight payloads are only
//     accepted when f+1 distinct voters vouch for their digest; committed
//     payloads are what the responder's application reads back for them
//     (Options.ReadCommitted).

// fetchWindow bounds sequences served per fetch request.
const fetchWindow = 16

// outMsg is a message staged under r.mu and sent after unlock.
type outMsg struct {
	to    p2p.NodeID // broadcast when == broadcastTo
	topic string
	data  []byte
}

const broadcastTo = ^p2p.NodeID(0)

// run is the liveness loop: one ticker drives heartbeats, the progress
// timer and retransmission until Close.
func (r *Replica) run() {
	defer close(r.done)
	tick := r.opts.RetransmitInterval / 2
	if hb := r.opts.HeartbeatInterval / 2; hb < tick {
		tick = hb
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.tick()
		}
	}
}

func (r *Replica) tick() {
	now := time.Now()
	var out []outMsg
	var requestVC bool

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	leaderID := p2p.NodeID(r.view % uint64(r.n))

	// Heartbeat: view + delivered, the catch-up signal for stragglers.
	if r.n > 1 && now.Sub(r.lastHeartbeat) >= r.opts.HeartbeatInterval {
		r.lastHeartbeat = now
		mHeartbeats.Inc()
		out = append(out, outMsg{to: broadcastTo, topic: topicStatus,
			data: encodeMsg(msgStatus, r.view, r.delivered, zeroDigest[:], nil)})
	}

	// Leader-silence timer: pending work with no delivery progress for
	// ViewTimeout means the leader is crashed, partitioned away, or stuck —
	// vote it out. votedFor > view means the vote is already outstanding.
	pendingWork := len(r.instances) > 0 || len(r.pending) > 0 || len(r.carry) > 0 ||
		(r.opts.WorkPending != nil && r.opts.WorkPending())
	if r.n > 1 && pendingWork && r.votedFor <= r.view &&
		now.Sub(r.lastProgress) >= r.opts.ViewTimeout {
		requestVC = true
	}

	// Retransmit the outstanding view-change vote with backoff.
	if r.votedFor > r.view && now.Sub(r.vcLastSent) >= r.vcInterval {
		r.vcLastSent = now
		r.vcInterval = backoff(r.vcInterval, r.opts.RetransmitMax)
		mRetransmits.Inc()
		out = append(out, outMsg{to: broadcastTo, topic: topicViewChange, data: r.viewVote()})
	}

	// A new leader first re-proposes payloads carried across the view
	// change, at their original sequences.
	if leaderID == r.id {
		for seq, c := range r.carry {
			if seq < r.delivered {
				delete(r.carry, seq)
				continue
			}
			inst := r.getInstance(seq)
			if inst.havePre {
				continue
			}
			inst.havePre = true
			inst.digest = c.digest
			inst.payload = c.payload
			inst.prepares[r.id] = c.digest
			if seq >= r.nextSeq {
				r.nextSeq = seq + 1
			}
			out = append(out, outMsg{to: broadcastTo, topic: topicPrePrepare,
				data: encodeMsg(msgPrePrepare, r.view, seq, c.digest[:], c.payload)})
		}
		// Gap-fill: pipelined commits can outrun a sequence that was
		// abandoned in the old view, leaving a hole below nextSeq that
		// blocks delivery forever. With the vote quorum's certificates in
		// hand (certView), a hole with no certificate provably holds no
		// prepared payload, so a no-op closes it safely. Applications skip
		// undecodable (empty) payloads.
		if r.certView == r.view {
			for seq := r.delivered; seq < r.nextSeq; seq++ {
				if _, ok := r.instances[seq]; ok {
					continue
				}
				if _, ok := r.pending[seq]; ok {
					continue
				}
				if _, ok := r.carry[seq]; ok {
					continue
				}
				inst := r.getInstance(seq)
				inst.havePre = true
				inst.digest = sha256.Sum256(nil)
				inst.prepares[r.id] = inst.digest
				out = append(out, outMsg{to: broadcastTo, topic: topicPrePrepare,
					data: encodeMsg(msgPrePrepare, r.view, seq, inst.digest[:], nil)})
			}
		}
	}

	// Per-instance retransmission with exponential backoff.
	for seq, inst := range r.instances {
		if seq < r.delivered {
			delete(r.instances, seq) // late votes resurrected a done slot
			continue
		}
		if inst.committed || now.Sub(inst.lastSent) < inst.resendIn {
			continue
		}
		inst.lastSent = now
		inst.resendIn = backoff(inst.resendIn, r.opts.RetransmitMax)
		mRetransmits.Inc()
		switch {
		case !inst.havePre:
			// Votes arrived but the pre-prepare was lost: fetch it.
			if len(inst.prepares)+len(inst.commits) > 0 {
				mFetches.Inc()
				out = append(out, outMsg{to: broadcastTo, topic: topicFetch,
					data: encodeMsg(msgFetch, r.view, seq, zeroDigest[:], nil)})
			}
		case inst.havePre && leaderID == r.id:
			out = append(out, outMsg{to: broadcastTo, topic: topicPrePrepare,
				data: encodeMsg(msgPrePrepare, r.view, seq, inst.digest[:], inst.payload)})
			fallthrough
		default:
			if !inst.sentCommit {
				out = append(out, outMsg{to: broadcastTo, topic: topicPrepare,
					data: encodeMsg(msgPrepare, r.view, seq, inst.digest[:], nil)})
			} else {
				out = append(out, outMsg{to: broadcastTo, topic: topicCommit,
					data: encodeMsg(msgCommit, r.view, seq, inst.digest[:], nil)})
			}
		}
	}

	// Delivery-gap fetch: a peer reported a higher delivered count, so the
	// sequences this replica is missing are committed — pull them.
	var bestPeer p2p.NodeID
	var bestDelivered uint64
	for id, d := range r.peerDelivered {
		if d > bestDelivered {
			bestDelivered, bestPeer = d, id
		}
	}
	if bestDelivered > r.delivered && now.Sub(r.fetchLastSent) >= r.fetchInterval {
		r.fetchInterval = backoff(r.fetchInterval, r.opts.RetransmitMax)
		out = append(out, outMsg{to: bestPeer, topic: topicFetch, data: r.gapFetch(now)})
	}
	r.mu.Unlock()

	for _, m := range out {
		if m.to == broadcastTo {
			r.endpoint.Broadcast(m.topic, m.data)
		} else {
			r.endpoint.Send(m.to, m.topic, m.data)
		}
	}
	if requestVC {
		r.RequestViewChange()
	}
}

// gapFetch records and encodes a delivery-gap fetch starting at this
// replica's delivered count. Caller holds r.mu.
func (r *Replica) gapFetch(now time.Time) []byte {
	r.fetchLastSent = now
	r.fetchFrom = r.delivered
	mFetches.Inc()
	return encodeMsg(msgFetch, r.view, r.delivered, zeroDigest[:], nil)
}

func backoff(cur, max time.Duration) time.Duration {
	next := cur * 2
	if next > max {
		next = max
	}
	return next
}

// onStatus ingests a peer heartbeat: its view (for view catch-up) and its
// delivered count (for delivery catch-up, served by the tick loop).
func (r *Replica) onStatus(m p2p.Message) {
	typ, view, delivered, _, _, err := decodeMsg(m.Data)
	if err != nil || typ != msgStatus {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if view > r.peerViews[m.From] {
		r.peerViews[m.From] = view
	}
	if delivered > r.peerDelivered[m.From] {
		r.peerDelivered[m.From] = delivered
	}
	// f+1 peers at view ≥ v ⇒ at least one correct replica adopted v, which
	// requires a 2f+1 vote quorum — safe to jump without re-voting.
	if len(r.peerViews) > r.f {
		views := make([]uint64, 0, len(r.peerViews))
		for _, v := range r.peerViews {
			views = append(views, v)
		}
		sort.Slice(views, func(i, j int) bool { return views[i] > views[j] })
		if v := views[r.f]; v > r.view {
			r.adoptView(v)
		}
	}
}

// onFetch serves a peer's catch-up request: up to fetchWindow sequences
// starting at the requested one, each either committed here (read back
// through Options.ReadCommitted, outside the lock, and sent with a committed
// tag) or in flight (the pre-prepare contents). Committed sequences are
// answered up to the first one ReadCommitted cannot serve.
func (r *Replica) onFetch(m p2p.Message) {
	typ, _, from, _, _, err := decodeMsg(m.Data)
	if err != nil || typ != msgFetch {
		return
	}
	var out []outMsg
	var committed []uint64
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	view := r.view
	for seq := from; seq < from+fetchWindow; seq++ {
		if seq < r.delivered {
			committed = append(committed, seq)
			continue
		}
		if inst, ok := r.instances[seq]; ok && inst.havePre {
			out = append(out, outMsg{to: m.From, topic: topicFetchResp,
				data: encodeMsg(msgFetchResp, view, seq, inst.digest[:], inst.payload)})
		}
	}
	r.mu.Unlock()
	if r.opts.ReadCommitted != nil {
		for _, seq := range committed {
			payload := r.opts.ReadCommitted(seq)
			if payload == nil {
				break
			}
			digest := sha256.Sum256(payload)
			r.endpoint.Send(m.From, topicFetchResp, encodeMsg(msgFetchCommitted, view, seq, digest[:], payload))
		}
	}
	for _, o := range out {
		r.endpoint.Send(o.to, o.topic, o.data)
	}
}

// onFetchResp ingests fetched payloads. Committed payloads deliver
// directly (a fail-stop peer only reports committed what a 2f+1 quorum
// committed); in-flight payloads are accepted as the missing pre-prepare
// only when f+1 distinct voters already vouched for their digest.
func (r *Replica) onFetchResp(m p2p.Message) {
	typ, view, seq, digest, payload, err := decodeMsg(m.Data)
	if err != nil || (typ != msgFetchResp && typ != msgFetchCommitted) {
		return
	}
	if sha256.Sum256(payload) != digest {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || seq < r.delivered {
		return
	}

	if typ == msgFetchCommitted {
		inst := r.getInstance(seq)
		if inst.committed {
			return
		}
		inst.committed = true
		inst.havePre = true
		inst.digest = digest
		inst.payload = append([]byte(nil), payload...)
		mFetchedCommitted.Inc()
		r.pending[seq] = inst.payload
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
		r.deliverReady()
		// The whole window asked for has delivered: while the peer is still
		// ahead, ask for the next one now instead of on the next tick, so
		// catch-up runs at round-trip speed.
		if !r.closed && r.delivered >= r.fetchFrom+fetchWindow && r.peerDelivered[m.From] > r.delivered {
			next := r.gapFetch(time.Now())
			r.mu.Unlock()
			r.endpoint.Send(m.From, topicFetch, next)
			r.mu.Lock()
		}
		return
	}

	// In-flight replay: same checks as a pre-prepare, except the payload is
	// vouched for by f+1 voters instead of arriving from the leader.
	if view != r.view {
		return
	}
	if c, held := r.carry[seq]; held && c.digest != digest {
		return
	}
	inst, ok := r.instances[seq]
	if !ok || inst.havePre {
		return
	}
	voters := make(map[p2p.NodeID]struct{})
	for id, d := range inst.prepares {
		if d == digest {
			voters[id] = struct{}{}
		}
	}
	for id, d := range inst.commits {
		if d == digest {
			voters[id] = struct{}{}
		}
	}
	if len(voters) < r.f+1 {
		return
	}
	inst.havePre = true
	inst.digest = digest
	inst.payload = append([]byte(nil), payload...)
	inst.prepares[r.id] = digest
	if seq >= r.nextSeq {
		r.nextSeq = seq + 1
	}
	r.mu.Unlock()
	r.endpoint.Broadcast(topicPrepare, encodeMsg(msgPrepare, view, seq, digest[:], nil))
	r.mu.Lock()
	r.maybeAdvance(seq, inst)
}
