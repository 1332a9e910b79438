package consensus

import (
	"testing"
	"time"

	"confide/internal/p2p"
)

// waitView blocks until the replica reaches the target view.
func waitView(t *testing.T, r *Replica, target uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.View() >= target {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("replica %d stuck in view %d, want %d", r.id, r.View(), target)
}

func TestViewChangeElectsNextLeader(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	// The view-0 leader (replica 0) crashes.
	c.endpoints[0].Crash()
	for i := 1; i < 4; i++ {
		c.replicas[i].RequestViewChange()
	}
	for i := 1; i < 4; i++ {
		waitView(t, c.replicas[i], 1)
	}
	if c.replicas[1].Leader() != 1 {
		t.Fatalf("view 1 leader = %d, want 1 (round robin)", c.replicas[1].Leader())
	}
	if !c.replicas[1].IsLeader() {
		t.Fatal("replica 1 should lead view 1")
	}
	// The new leader proposes and the survivors commit.
	if _, err := c.replicas[1].Propose([]byte("after failover")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := c.replicas[i].WaitDelivered(1, 3*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	if log := c.log(1); string(log[0]) != "after failover" {
		t.Errorf("log = %q", log[0])
	}
}

func TestViewChangeRequiresQuorum(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{}) // quorum = 3
	// Only one replica asks: no switch.
	c.replicas[1].RequestViewChange()
	time.Sleep(20 * time.Millisecond)
	for i := range c.replicas {
		if v := c.replicas[i].View(); v != 0 {
			t.Fatalf("replica %d moved to view %d on a single vote", i, v)
		}
	}
}

func TestViewChangeJoinAmplification(t *testing.T) {
	// f+1 = 2 explicit votes must pull the remaining correct replicas in,
	// reaching the 2f+1 switch quorum without their own timers firing.
	c := newCluster(t, 4, p2p.Config{})
	c.replicas[2].RequestViewChange()
	c.replicas[3].RequestViewChange()
	for i := 0; i < 4; i++ {
		waitView(t, c.replicas[i], 1)
	}
}

func TestOldLeaderProposalRejectedAfterViewChange(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	for i := 0; i < 4; i++ {
		c.replicas[i].RequestViewChange()
	}
	for i := 0; i < 4; i++ {
		waitView(t, c.replicas[i], 1)
	}
	if _, err := c.replicas[0].Propose([]byte("stale leader")); err != ErrNotLeader {
		t.Errorf("old leader propose: err = %v, want ErrNotLeader", err)
	}
}

func TestViewChangeIsIdempotent(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	for round := 0; round < 3; round++ {
		// Repeated requests for the same target must not over-advance.
		c.replicas[1].RequestViewChange()
	}
	c.replicas[2].RequestViewChange()
	c.replicas[3].RequestViewChange()
	for i := 0; i < 4; i++ {
		waitView(t, c.replicas[i], 1)
	}
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if v := c.replicas[i].View(); v != 1 {
			t.Fatalf("replica %d at view %d, want exactly 1", i, v)
		}
	}
}

func TestConsecutiveViewChanges(t *testing.T) {
	c := newCluster(t, 4, p2p.Config{})
	for target := uint64(1); target <= 2; target++ {
		for i := 0; i < 4; i++ {
			c.replicas[i].RequestViewChange()
		}
		for i := 0; i < 4; i++ {
			waitView(t, c.replicas[i], target)
		}
	}
	if c.replicas[0].Leader() != 2 {
		t.Errorf("view 2 leader = %d, want 2", c.replicas[0].Leader())
	}
	// Normal operation resumes under the view-2 leader.
	if _, err := c.replicas[2].Propose([]byte("view 2 block")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.replicas[i].WaitDelivered(1, 3*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}

// TestStrandedVoterAdoptsViewFromAnswer: the one replica whose vote completed
// the quorum moves to view 1, but its vote never reaches the other two, so
// they hold two votes and wait. Heartbeats cannot help (one peer at view 1
// is below the f+1 evidence threshold) and their timers stay disarmed while
// their own vote is outstanding. Their retransmitted votes must draw the
// view-1 replica's answer and complete their quorum.
func TestStrandedVoterAdoptsViewFromAnswer(t *testing.T) {
	c := newClusterOpts(t, 4, p2p.Config{}, fastOpts())
	c.endpoints[0].Crash()
	c.net.SetLinkDropRate(1, 2, 1)
	c.net.SetLinkDropRate(1, 3, 1)
	c.replicas[2].RequestViewChange()
	c.replicas[3].RequestViewChange()
	waitView(t, c.replicas[1], 1)
	for i := 2; i < 4; i++ {
		if v := c.replicas[i].View(); v != 0 {
			t.Fatalf("replica %d reached view %d without replica 1's vote", i, v)
		}
	}
	c.net.SetLinkDropRate(1, 2, 0)
	c.net.SetLinkDropRate(1, 3, 0)
	for i := 2; i < 4; i++ {
		waitView(t, c.replicas[i], 1)
	}
	if _, err := c.replicas[1].Propose([]byte("after stranded vote")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := c.replicas[i].WaitDelivered(1, 3*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
