package node

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/tee"
	"confide/internal/workload"
)

// TestDrainAllWithDriver runs the synchronous DrainAll workload loop while
// the background driver proposes concurrently — the confide-node -gateway
// configuration. This is a regression test for a pool-promotion race: a
// transaction in transit through pre-verification while its block commits
// used to be re-added to the verified pool after the commit's sweep, where
// it sat forever on a follower (followers never propose) and DrainAll spun
// its full round budget against a pending count that could not reach zero.
// promoteVerified makes the committed-check and the pool insert atomic
// against applyDecoded. Enclave delay injection and store read latency widen
// the race window enough to hit it reliably before the fix.
//
// The test runs at pipeline depth 1 (the serialized PR 5 mode this was
// written against) and depth 4 (predicted-parent pipelining with the
// execute-behind-order queue and parallel OCC lanes) — the regression
// guarantees must hold identically in both.
func TestDrainAllWithDriver(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			testDrainAllWithDriver(t, depth)
		})
	}
}

func testDrainAllWithDriver(t *testing.T, depth int) {
	for iter := 0; iter < 3; iter++ {
		cluster, err := NewCluster(ClusterOptions{
			Nodes: 4,
			Node: Config{
				BlockMaxTxs:   32,
				EngineOpts:    core.AllOptimizations(),
				PipelineDepth: depth,
				ExecWorkers:   depth, // widen the OCC lanes along with the window
			},
			Enclave:          tee.Config{InjectDelays: true},
			StoreReadLatency: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := chain.AddressFromBytes([]byte("demo-con!"))
		owner := chain.AddressFromBytes([]byte("demo-own!"))
		code, err := workload.Compile(workload.ABSTransferFlatSrc, core.VMCVM)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.DeployEverywhere(addr, owner, core.VMCVM, code, true, 1); err != nil {
			t.Fatal(err)
		}
		stop := cluster.StartDriver(0)

		epoch, pk := cluster.EnvelopeKeyInfo()
		client, err := core.NewClient(pk)
		if err != nil {
			t.Fatal(err)
		}
		client.SetEnvelopeKey(epoch, pk)
		rng := rand.New(rand.NewSource(int64(iter) + 1))
		var hashes []chain.Hash
		for i := 0; i < 16; i++ {
			method, args := workload.ABSFlatInput(rng)
			tx, _, err := client.NewConfidentialTx(addr, method, args...)
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.Leader().SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, tx.Hash())
		}
		if _, err := cluster.DrainAll(256, time.Minute); err != nil {
			stop()
			cluster.Close()
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, h := range hashes {
			if _, found, _ := cluster.Leader().StoredReceipt(h); !found {
				t.Errorf("iter %d: tx %x drained but has no receipt", iter, h[:6])
			}
		}
		stop()
		cluster.Close()
	}
}
