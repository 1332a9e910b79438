package consensus

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"confide/internal/p2p"
)

// cluster spins up n replicas on one simulated network and records each
// replica's committed payload log, which also serves its peers' catch-up
// fetches (Options.ReadCommitted), the way a node serves them from its store.
type cluster struct {
	replicas  []*Replica
	endpoints []*p2p.Endpoint
	net       *p2p.Network
	mu        sync.Mutex
	logs      [][]([]byte)
}

func newCluster(t *testing.T, n int, cfg p2p.Config) *cluster {
	t.Helper()
	return newClusterOpts(t, n, cfg, Options{})
}

func newClusterOpts(t *testing.T, n int, cfg p2p.Config, opts Options) *cluster {
	t.Helper()
	net := p2p.NewNetwork(cfg)
	c := &cluster{net: net, logs: make([][]([]byte), n)}
	for i := 0; i < n; i++ {
		e, err := net.Join(p2p.NodeID(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		opts := opts
		if opts.ReadCommitted == nil {
			opts.ReadCommitted = func(seq uint64) []byte {
				c.mu.Lock()
				defer c.mu.Unlock()
				if seq < uint64(len(c.logs[i])) {
					return c.logs[i][seq]
				}
				return nil
			}
		}
		r := NewReplicaWithOptions(e, n, func(seq uint64, payload []byte) {
			c.mu.Lock()
			c.logs[i] = append(c.logs[i], append([]byte(nil), payload...))
			c.mu.Unlock()
		}, opts)
		c.replicas = append(c.replicas, r)
		c.endpoints = append(c.endpoints, e)
	}
	t.Cleanup(func() {
		for i := range c.replicas {
			c.replicas[i].Close()
			c.endpoints[i].Close()
		}
	})
	return c
}

// log returns replica i's delivered payloads. A replica counts a delivery,
// and wakes WaitDelivered, before its callback appends the payload here, so
// log first waits for the callbacks to catch up with that count.
func (c *cluster) log(i int) [][]byte {
	deadline := time.Now().Add(5 * time.Second)
	for {
		delivered := c.replicas[i].Delivered()
		c.mu.Lock()
		out := append([][]byte(nil), c.logs[i]...)
		c.mu.Unlock()
		if uint64(len(out)) >= delivered || time.Now().After(deadline) {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleReplicaCommitsImmediately(t *testing.T) {
	c := newCluster(t, 1, p2p.Config{})
	seq, err := c.replicas[0].Propose([]byte("solo"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Errorf("seq = %d, want 0", seq)
	}
	if err := c.replicas[0].WaitDelivered(1, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.log(0); len(got) != 1 || string(got[0]) != "solo" {
		t.Errorf("log = %q", got)
	}
}

func TestFourReplicasAgree(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	leader := c.replicas[0]
	if !leader.IsLeader() {
		t.Fatal("replica 0 should lead view 0")
	}
	if leader.Quorum() != 3 {
		t.Errorf("quorum = %d, want 3 for n=4", leader.Quorum())
	}
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("block-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range c.replicas {
		if err := r.WaitDelivered(5, 3*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	want := c.log(0)
	for i := 1; i < 4; i++ {
		got := c.log(i)
		if len(got) != len(want) {
			t.Fatalf("replica %d delivered %d, leader %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("replica %d log diverges at %d", i, j)
			}
		}
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	if _, err := c.replicas[1].Propose([]byte("x")); err != ErrNotLeader {
		t.Errorf("err = %v, want ErrNotLeader", err)
	}
}

func TestToleratesFCrashedFollowers(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{}) // f = 1
	c.endpoints[3].Crash()
	leader := c.replicas[0]
	for i := 0; i < 3; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // the live replicas
		if err := c.replicas[i].WaitDelivered(3, 3*time.Second); err != nil {
			t.Fatalf("replica %d with one crashed peer: %v", i, err)
		}
	}
	if c.replicas[3].Delivered() != 0 {
		t.Error("crashed replica should deliver nothing")
	}
}

func TestStallsBeyondF(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	c.endpoints[2].Crash()
	c.endpoints[3].Crash() // 2 > f = 1
	c.replicas[0].Propose([]byte("doomed"))
	if err := c.replicas[0].WaitDelivered(1, 300*time.Millisecond); err == nil {
		t.Error("commit should stall with 2 of 4 replicas crashed")
	}
}

func TestCommitsUnderNetworkLatency(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{
		IntraZone: p2p.LinkProfile{Latency: 2 * time.Millisecond},
	})
	start := time.Now()
	c.replicas[0].Propose([]byte("latent"))
	if err := c.replicas[1].WaitDelivered(1, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	// Three phases × 2 ms ≥ ~4 ms for a follower to deliver (pre-prepare,
	// prepare; its own commit counts locally).
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("delivered in %v; latency model seems bypassed", elapsed)
	}
}

func TestPipelinedProposalsDeliverInOrder(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{
		IntraZone: p2p.LinkProfile{Latency: time.Millisecond},
	})
	const blocks = 20
	for i := 0; i < blocks; i++ {
		if _, err := c.replicas[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range c.replicas {
		if err := c.replicas[i].WaitDelivered(blocks, 5*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		log := c.log(i)
		for j := 0; j < blocks; j++ {
			if log[j][0] != byte(j) {
				t.Fatalf("replica %d delivered out of order at %d", i, j)
			}
		}
	}
}

func TestForgedLeaderPrePrepareIgnored(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	// Replica 1 (not the leader) tries to pre-prepare; followers must
	// ignore it because view 0's leader is replica 0.
	forged := encodeMsg(msgPrePrepare, 0, 0, make([]byte, 32), []byte("evil"))
	c.endpoints[1].Broadcast(topicPrePrepare, forged)
	time.Sleep(50 * time.Millisecond)
	for i := range c.replicas {
		if c.replicas[i].Delivered() != 0 {
			t.Fatalf("replica %d committed a forged proposal", i)
		}
	}
}

func TestDigestMismatchDiscarded(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	bad := encodeMsg(msgPrePrepare, 0, 0, make([]byte, 32), []byte("payload-not-matching-digest"))
	c.endpoints[0].Broadcast(topicPrePrepare, bad) // from the real leader
	time.Sleep(50 * time.Millisecond)
	for i := range c.replicas {
		if c.replicas[i].Delivered() != 0 {
			t.Fatalf("replica %d committed a digest-mismatched proposal", i)
		}
	}
}

func TestProposeAfterCloseFails(t *testing.T) {
	c := newCluster(t, 1, p2p.Config{})
	c.replicas[0].Close()
	if _, err := c.replicas[0].Propose([]byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestLargerClusterAgrees(t *testing.T) {
	c := newCluster(t, 7, p2p.Config{}) // f = 2, quorum 5
	if c.replicas[0].Quorum() != 5 {
		t.Fatalf("quorum = %d, want 5", c.replicas[0].Quorum())
	}
	c.replicas[0].Propose([]byte("wide"))
	for i := range c.replicas {
		if err := c.replicas[i].WaitDelivered(1, 3*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
