package node

import (
	"fmt"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/storage/vfs"
)

// Targeted crash-point drills: arm one named crash point on a follower of a
// DiskFaults cluster, let live traffic drive the node through it (power-cut
// semantics: the fault filesystem freezes at its durable image, the node is
// killed without any clean shutdown), then revive it and require the node to
// recover to a consistent prefix and rejoin the cluster — with every
// committed transaction's receipt present and all sealed state re-verifying.

// crashClusterOptions is the cluster shape the targeted drills run on:
// disk-fault stores, fast checkpoint announces, and checkpoints (so the prune and
// install paths have traffic and a quarantined store can fast-sync).
func crashClusterOptions(seed int64) ClusterOptions {
	return ClusterOptions{
		Nodes:      4,
		DiskFaults: true,
		FaultSeed:  seed,
		Node: Config{
			SyncInterval:       25 * time.Millisecond,
			CheckpointInterval: 3,
			Retention:          6,
		},
	}
}

// keepChainMoving has an idle leader cut an empty block. The proposer loop
// never does, and the drills need the chain to keep moving (activation
// heights, checkpoints) after their traffic has drained.
func keepChainMoving(c *Cluster) {
	if l := c.Leader(); l.Backlog() == 0 && l.replica.InFlight() == 0 {
		l.ProposeBlock()
	}
}

// followerOf picks a node that does not currently lead.
func followerOf(c *Cluster) int {
	victim := 0
	if int(c.Leader().ID()) == victim {
		victim = 1
	}
	return victim
}

func TestCrashReviveAtStoragePoints(t *testing.T) {
	cases := []struct {
		name  string
		point string
	}{
		{"wal-append", vfs.CrashWALAppend},
		{"prune", vfs.CrashPrune},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, crashClusterOptions(100+int64(ci)))
			client := newClusterClient(t, c)

			var txs []*chain.Tx
			submit := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit",
						acct(fmt.Sprintf("c%03d", len(txs))), []byte{1})
					if err != nil {
						t.Fatal(err)
					}
					if err := c.Submit(tx); err != nil {
						t.Fatal(err)
					}
					txs = append(txs, tx)
				}
			}

			// Seed the chain while everyone is healthy.
			submit(4)
			time.Sleep(5 * time.Millisecond)
			if _, err := c.ProcessRound(10 * time.Second); err != nil {
				t.Fatal(err)
			}

			defer c.StartDriver(0)()

			victim := followerOf(c)
			fired, err := c.ArmCrash(victim, tc.point)
			if err != nil {
				t.Fatal(err)
			}

			// Keep traffic flowing until the armed point kills the victim.
			deadline := time.Now().Add(20 * time.Second)
			for crashedAt := false; !crashedAt; {
				select {
				case <-fired:
					crashedAt = true
				default:
					if time.Now().After(deadline) {
						t.Fatalf("crash point %q never fired", tc.point)
					}
					submit(1)
					time.Sleep(10 * time.Millisecond)
				}
			}
			if c.Nodes[victim].Failed() == nil {
				// The kill is asynchronous; give fail-stop a moment.
				time.Sleep(50 * time.Millisecond)
			}

			if err := c.CrashNode(victim); err != nil {
				t.Fatal(err)
			}
			quarantined, err := c.ReviveNode(victim)
			if err != nil {
				t.Fatalf("revive after %s crash: %v", tc.point, err)
			}
			t.Logf("%s: revived (quarantined=%v), fs stats %+v", tc.point, quarantined, c.FaultFS(victim).Stats())

			// Land the remaining workload and let the revived node catch up.
			submit(4)
			deadline = time.Now().Add(30 * time.Second)
			for {
				done := true
				for _, tx := range txs {
					if _, found, _ := c.Nodes[victim].StoredReceipt(tx.Hash()); !found {
						done = false
						break
					}
				}
				if done && c.Nodes[victim].Height() >= c.Leader().Height() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("revived node never converged: height %d vs leader %d",
						c.Nodes[victim].Height(), c.Leader().Height())
				}
				keepChainMoving(c)
				time.Sleep(10 * time.Millisecond)
			}

			// Every sealed record on the revived node must re-verify.
			st, err := c.Nodes[victim].ConfidentialEngine().AuditSealedState()
			if err != nil {
				t.Fatalf("sealed-state audit after revive: %v", err)
			}
			if st.Opened == 0 {
				t.Fatal("audit opened no sealed records — nothing was certified")
			}
		})
	}
}

// TestCrashReviveAtCheckpointInstall crashes a node halfway through adopting
// a snapshot (state chunks written, base marker not yet committed) and
// requires the reopen to detect the dangling install marker, quarantine the
// store, and rebuild cleanly via a second fast-sync.
func TestCrashReviveAtCheckpointInstall(t *testing.T) {
	c := newTestCluster(t, crashClusterOptions(200))
	client := newClusterClient(t, c)

	var txs []*chain.Tx
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit",
				acct(fmt.Sprintf("i%03d", len(txs))), []byte{2})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
	}

	// Build enough chain that a wiped node must rejoin through fast-sync
	// (two full checkpoint intervals).
	for round := 0; round < 7; round++ {
		submit(2)
		time.Sleep(5 * time.Millisecond)
		if _, err := c.ProcessRound(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	defer c.StartDriver(0)()

	victim := followerOf(c)
	fired, err := c.ArmCrash(victim, vfs.CrashCheckpointInstall)
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the victim: its replacement must fast-sync, and the armed point
	// kills it mid-install.
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(20 * time.Second):
		t.Fatal("checkpoint-install crash point never fired during fast-sync")
	}

	if err := c.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	quarantined, err := c.ReviveNode(victim)
	if err != nil {
		t.Fatalf("revive after mid-install crash: %v", err)
	}
	if !quarantined {
		t.Fatal("half-installed snapshot survived reopen without quarantine")
	}

	// The rebuilt node must converge through a clean fast-sync.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, tx := range txs {
			if _, found, _ := c.Nodes[victim].StoredReceipt(tx.Hash()); !found {
				done = false
				break
			}
		}
		if done && c.Nodes[victim].Height() >= c.Leader().Height() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantined node never converged: height %d vs leader %d",
				c.Nodes[victim].Height(), c.Leader().Height())
		}
		keepChainMoving(c)
		time.Sleep(10 * time.Millisecond)
	}
	if st, err := c.Nodes[victim].ConfidentialEngine().AuditSealedState(); err != nil || st.Opened == 0 {
		t.Fatalf("sealed-state audit after quarantine rebuild: opened=%d err=%v", st.Opened, err)
	}
}

// TestCrashReviveAtResealSweep crashes a node as its background re-seal
// sweeper wakes after a key rotation, then requires the revived node to come
// back on the rotated epoch with every sealed record openable (whichever
// epoch each record landed on).
func TestCrashReviveAtResealSweep(t *testing.T) {
	c := newTestCluster(t, crashClusterOptions(300))
	client := newClusterClient(t, c)

	var txs []*chain.Tx
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit",
				acct(fmt.Sprintf("r%03d", len(txs))), []byte{3})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
	}

	// Epoch-1 sealed workload, then order a rotation: once it activates the
	// old records are stale and every node's re-seal sweeper has work.
	submit(4)
	time.Sleep(5 * time.Millisecond)
	if _, err := c.ProcessRound(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer c.StartDriver(0)()
	victim := followerOf(c)
	fired, err := c.ArmCrash(victim, vfs.CrashResealSweep)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RotateEpoch(2); err != nil {
		t.Fatal(err)
	}

	// Drive blocks past the activation height until the victim's sweeper
	// wakes into the armed point.
	deadline := time.Now().Add(20 * time.Second)
	for crashedAt := false; !crashedAt; {
		select {
		case <-fired:
			crashedAt = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("reseal-sweep crash point never fired after rotation")
			}
			keepChainMoving(c)
			time.Sleep(10 * time.Millisecond)
		}
	}

	if err := c.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReviveNode(victim); err != nil {
		t.Fatalf("revive after reseal-sweep crash: %v", err)
	}

	// The revived node must adopt the rotated epoch and hold fully openable
	// sealed state (mixed epochs are fine; unopenable records are not).
	deadline = time.Now().Add(30 * time.Second)
	for {
		if c.Nodes[victim].CurrentEpoch() == 2 &&
			c.Nodes[victim].Height() >= c.Leader().Height() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived node stuck: epoch %d height %d (leader height %d)",
				c.Nodes[victim].CurrentEpoch(), c.Nodes[victim].Height(), c.Leader().Height())
		}
		keepChainMoving(c)
		time.Sleep(10 * time.Millisecond)
	}
	if st, err := c.Nodes[victim].ConfidentialEngine().AuditSealedState(); err != nil || st.Opened == 0 {
		t.Fatalf("sealed-state audit after reseal-sweep crash: opened=%d err=%v", st.Opened, err)
	}
}
