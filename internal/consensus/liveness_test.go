package consensus

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"confide/internal/p2p"
)

// fastOpts shrinks the liveness timers so fault tests converge quickly.
func fastOpts() Options {
	return Options{
		ViewTimeout:        120 * time.Millisecond,
		RetransmitInterval: 15 * time.Millisecond,
		RetransmitMax:      120 * time.Millisecond,
		HeartbeatInterval:  20 * time.Millisecond,
	}
}

// TestAutomaticViewChangeOnLeaderSilence: pending work + a crashed leader
// must rotate the view with ZERO manual RequestViewChange calls.
func TestAutomaticViewChangeOnLeaderSilence(t *testing.T) {
	var pending atomic.Bool
	pending.Store(true)
	opts := fastOpts()
	opts.WorkPending = pending.Load
	c := newClusterOpts(t, 4, p2p.Config{}, opts)

	c.endpoints[0].Crash() // view-0 leader dies before proposing anything

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.replicas[1].View() == 0 {
		time.Sleep(time.Millisecond)
	}
	if v := c.replicas[1].View(); v == 0 {
		t.Fatal("progress timer never voted the silent leader out")
	}

	// Whichever live replica now leads can order the pending work.
	var leader *Replica
	for time.Now().Before(deadline) && leader == nil {
		for _, r := range c.replicas[1:] {
			if r.IsLeader() {
				leader = r
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no live replica took over leadership")
	}
	if _, err := leader.Propose([]byte("after automatic failover")); err != nil {
		t.Fatal(err)
	}
	pending.Store(false)
	for _, r := range c.replicas[1:] {
		if err := r.WaitDelivered(1, 5*time.Second); err != nil {
			t.Fatalf("replica %d: %v", r.id, err)
		}
	}
}

// TestCommitsUnderMessageLoss: with 15% random loss and a live leader,
// retransmission alone must push a pipeline of blocks through.
func TestCommitsUnderMessageLoss(t *testing.T) {
	c := newClusterOpts(t, 4, p2p.Config{DropRate: 0.15, Seed: 42}, fastOpts())
	const blocks = 8
	for i := 0; i < blocks; i++ {
		if _, err := c.replicas[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range c.replicas {
		if err := r.WaitDelivered(blocks, 15*time.Second); err != nil {
			t.Fatalf("replica %d under loss: %v", i, err)
		}
		log := c.log(i)
		for j := 0; j < blocks; j++ {
			if log[j][0] != byte(j) {
				t.Fatalf("replica %d delivered out of order at %d", i, j)
			}
		}
	}
}

// TestViewChangeUnderMessageLoss is the satellite scenario: leader crash
// plus 10% drop; recovery must come from the automatic timers and
// retransmitted view-change votes, with no manual votes in the test body.
func TestViewChangeUnderMessageLoss(t *testing.T) {
	var pending atomic.Bool
	pending.Store(true)
	opts := fastOpts()
	opts.WorkPending = pending.Load
	c := newClusterOpts(t, 4, p2p.Config{DropRate: 0.10, Seed: 7}, opts)

	// The leader gets one block through, then dies.
	if _, err := c.replicas[0].Propose([]byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.replicas {
		if err := r.WaitDelivered(1, 10*time.Second); err != nil {
			t.Fatalf("replica %d: %v", r.id, err)
		}
	}
	c.endpoints[0].Crash()

	// Survivors must rotate the view on their own, then commit new work.
	deadline := time.Now().Add(10 * time.Second)
	var leader *Replica
	for time.Now().Before(deadline) && leader == nil {
		for _, r := range c.replicas[1:] {
			if r.View() > 0 && r.IsLeader() {
				leader = r
			}
		}
		time.Sleep(time.Millisecond)
	}
	if leader == nil {
		t.Fatal("automatic view change did not elect a live leader under loss")
	}
	// Propose like a client: a proposal that was not yet prepared is
	// legitimately dropped by a further view change, so retry until every
	// survivor has delivered a second block.
	for {
		for _, r := range c.replicas[1:] {
			if r.IsLeader() {
				r.Propose([]byte("post-crash")) // may race a view change
			}
		}
		converged := true
		for _, r := range c.replicas[1:] {
			if r.Delivered() < 2 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never committed new work after failover under loss")
		}
		time.Sleep(20 * time.Millisecond)
	}
	pending.Store(false)
}

// TestRejoiningReplicaCatchesUp: a replica that was crashed while the rest
// of the cluster committed blocks must, after recovery, learn the gap from
// heartbeats and pull the committed payloads via fetch.
func TestRejoiningReplicaCatchesUp(t *testing.T) {
	c := newClusterOpts(t, 4, p2p.Config{}, fastOpts())
	c.endpoints[3].Crash()
	const blocks = 5
	for i := 0; i < blocks; i++ {
		if _, err := c.replicas[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range c.replicas[:3] {
		if err := r.WaitDelivered(blocks, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if c.replicas[3].Delivered() != 0 {
		t.Fatal("crashed replica delivered while down")
	}

	c.endpoints[3].Recover()
	if err := c.replicas[3].WaitDelivered(blocks, 10*time.Second); err != nil {
		t.Fatalf("rejoined replica never caught up: %v", err)
	}
	log := c.log(3)
	for j := 0; j < blocks; j++ {
		if log[j][0] != byte(j) {
			t.Fatalf("caught-up log diverges at %d", j)
		}
	}
}

// TestCommittedFetchServedFromReadCommitted: a rejoining replica's committed
// catch-up carries exactly what its peers' ReadCommitted returns for each
// sequence — what their applications kept — not the payloads they delivered.
func TestCommittedFetchServedFromReadCommitted(t *testing.T) {
	stored := func(seq uint64) []byte { return []byte(fmt.Sprintf("stored %d", seq)) }
	opts := fastOpts()
	opts.ReadCommitted = stored
	c := newClusterOpts(t, 4, p2p.Config{}, opts)
	c.endpoints[3].Crash()
	const blocks = 5
	for i := 0; i < blocks; i++ {
		if _, err := c.replicas[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range c.replicas[:3] {
		if err := r.WaitDelivered(blocks, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.endpoints[3].Recover()
	if err := c.replicas[3].WaitDelivered(blocks, 10*time.Second); err != nil {
		t.Fatalf("rejoined replica never caught up: %v", err)
	}
	for seq, got := range c.log(3)[:blocks] {
		if want := stored(uint64(seq)); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: caught up with %q, want the served %q", seq, got, want)
		}
	}
}

// TestCatchUpChasesWindows: a replica several fetch windows behind asks for
// the next window as soon as one has delivered, not on its retransmission
// timer — here 2 s, longer than the whole catch-up may take.
func TestCatchUpChasesWindows(t *testing.T) {
	opts := fastOpts()
	opts.ViewTimeout = 10 * time.Second
	opts.RetransmitInterval = 2 * time.Second
	opts.RetransmitMax = 2 * time.Second
	c := newClusterOpts(t, 4, p2p.Config{}, opts)
	c.endpoints[3].Crash()
	const blocks = 3*fetchWindow + 1
	for i := 0; i < blocks; i++ {
		if _, err := c.replicas[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range c.replicas[:3] {
		if err := r.WaitDelivered(blocks, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.endpoints[3].Recover()
	if err := c.replicas[3].WaitDelivered(blocks, 1500*time.Millisecond); err != nil {
		t.Fatalf("catch-up waited on the retransmission timer: %v", err)
	}
}

// TestLostPrePrepareFetchedFromPeers: the leader's pre-prepare to one
// replica is dropped (per-link drop on the pre-prepare path); the replica
// sees the prepare votes, fetches the payload from a peer, and commits.
func TestLostPrePrepareFetchedFromPeers(t *testing.T) {
	c := newClusterOpts(t, 4, p2p.Config{}, fastOpts())
	// Kill only leader→replica-3 traffic: 3 still hears prepares/commits
	// from 1 and 2 but never the pre-prepare or its retransmissions.
	c.net.SetLinkDropRate(0, 3, 1.0)
	if _, err := c.replicas[0].Propose([]byte("fetch me")); err != nil {
		t.Fatal(err)
	}
	if err := c.replicas[3].WaitDelivered(1, 10*time.Second); err != nil {
		t.Fatalf("replica behind a dead leader link never fetched the payload: %v", err)
	}
	if got := c.log(3); string(got[0]) != "fetch me" {
		t.Fatalf("fetched payload = %q", got[0])
	}
}

// TestViewVotesPruned is the regression test for the viewVotes leak: after
// a switch to view v, vote maps for ALL views ≤ v must be gone, not just
// the adopted target's.
func TestViewVotesPruned(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	r := c.replicas[0]
	// Simulate straggler votes for views 1 and 2 arriving while the quorum
	// forms for view 3.
	r.mu.Lock()
	r.recordViewVote(1, 1, nil)
	r.recordViewVote(2, 2, nil)
	r.recordViewVote(3, 1, nil)
	r.recordViewVote(3, 2, nil)
	r.recordViewVote(3, 3, nil)
	r.maybeSwitchView(3)
	leaked := len(r.viewVotes)
	view := r.view
	r.mu.Unlock()
	if view != 3 {
		t.Fatalf("view = %d, want 3", view)
	}
	if leaked != 0 {
		t.Fatalf("%d stale viewVotes entries leaked after the switch", leaked)
	}
}

// TestGapFilledAcrossViewChange reproduces the pipelining wedge: seq 1
// commits while seq 0 was never even pre-prepared (its proposal vanished
// with the leader). The committed payload is stuck behind the hole. After
// the automatic view change, the new leader's quorum certificates prove
// seq 0 holds no prepared payload, so it no-op-fills the hole and seq 1
// finally delivers.
func TestGapFilledAcrossViewChange(t *testing.T) {
	c := newClusterOpts(t, 4, p2p.Config{}, fastOpts())

	// The leader "proposes" only seq 1 — as if seq 0's pre-prepare was
	// composed but never hit the wire before the crash.
	payload := []byte("orphaned behind a hole")
	digest := sha256.Sum256(payload)
	c.endpoints[0].Broadcast(topicPrePrepare, encodeMsg(msgPrePrepare, 0, 1, digest[:], payload))

	// Followers commit seq 1 but cannot deliver past the hole at seq 0.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.replicas[1].mu.Lock()
		stuck := len(c.replicas[1].pending) > 0
		c.replicas[1].mu.Unlock()
		if stuck {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if c.replicas[1].Delivered() != 0 {
		t.Fatal("delivery should be blocked by the hole at seq 0")
	}
	c.endpoints[0].Crash()

	// The survivors' progress timers rotate the view; the new leader must
	// close the hole on its own.
	for _, r := range c.replicas[1:] {
		if err := r.WaitDelivered(2, 10*time.Second); err != nil {
			t.Fatalf("replica %d stuck behind the gap: %v", r.id, err)
		}
	}
	for i := 1; i < 4; i++ {
		log := c.log(i)
		if len(log[0]) != 0 {
			t.Fatalf("replica %d: seq 0 should be a no-op, got %q", i, log[0])
		}
		if string(log[1]) != string(payload) {
			t.Fatalf("replica %d: seq 1 = %q, want the orphaned payload", i, log[1])
		}
	}
}

// TestWaitDeliveredBlocksWithoutSpinning checks the notification-based
// waiter: it must wake promptly on delivery rather than poll.
func TestWaitDeliveredBlocksWithoutSpinning(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	done := make(chan error, 1)
	go func() { done <- c.replicas[2].WaitDelivered(1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond) // waiter is parked
	if _, err := c.replicas[0].Propose([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}
