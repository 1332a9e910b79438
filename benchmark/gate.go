package main

// The correctness gate every run ends with. A violation here means the
// numbers describe a broken system, so the run prints none and exits
// non-zero.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"confide/internal/gateway/gwclient"
)

const (
	// gateSample is how many seed-chosen transactions are fetched again
	// through the SDK (SPV proof plus header quorum) and opened.
	gateSample = 32
	// gateHeights is how many seed-chosen heights, besides the tip, must read
	// byte-identical on all replicas.
	gateHeights = 8
	// settleTimeout bounds the wait for accepted transactions to commit
	// everywhere after the last submission, and one receipt wait.
	settleTimeout = 30 * time.Second
)

// gate checks the finished run and returns its violations (none = passed)
// plus the number of stock receipts that did not read ReceiptOK. dedupSkips is
// how many block inclusions the nodes skipped at execution during the run
// (confide_node_dedup_skips_total, all replicas).
func gate(s *sut, track *tracker, submitted []*stockTx, sdk *gwclient.Client, seed int64, dedupSkips uint64) (violations []string, badReceipts int) {
	bad := func(format string, args ...any) {
		if len(violations) < 20 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	// Every replica at the same height with the same headers.
	nodes := s.cluster.Nodes
	height := nodes[0].Height()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		same := true
		for _, n := range nodes {
			same = same && n.Height() == height
		}
		if same {
			break
		}
		height = nodes[0].Height()
	}
	for i, n := range nodes {
		if h := n.Height(); h != height {
			bad("node %d at height %d, node 0 at %d", i, h, height)
		}
	}
	if height == 0 {
		bad("no block committed")
		return violations, 0
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6761746521)) // the gate's own stream
	heights := []uint64{height - 1}
	for i := 0; i < gateHeights; i++ {
		heights = append(heights, uint64(rng.Int63n(int64(height))))
	}
	for _, h := range heights {
		want, err := nodes[0].HeaderAt(h)
		if err != nil {
			bad("node 0 header %d: %v", h, err)
			continue
		}
		for i, n := range nodes[1:] {
			got, err := n.HeaderAt(h)
			if err != nil || !bytes.Equal(got, want) {
				bad("node %d header %d differs from node 0 (%v)", i+1, h, err)
			}
		}
	}

	// Every accepted transaction executed exactly once on every replica. A
	// transaction re-pooled around a view change may ride in two blocks; the
	// nodes then skip the second inclusion at execution. So: in a block at
	// least once, equally often on every replica, and every inclusion past
	// the first accounted for by the nodes' dedup-skip counter.
	var extra uint64
	track.mu.Lock()
	for h, r := range track.recs {
		for i, c := range r.commits {
			if c != r.commits[0] || (c == 0 && !r.failed) {
				bad("tx %x in %d blocks on node %d, %d on node 0", h[:6], c, i, r.commits[0])
			}
			if c > 1 {
				extra += uint64(c - 1)
			}
		}
	}
	track.mu.Unlock()
	if extra != dedupSkips {
		bad("%d repeated block inclusions but the nodes skipped %d at execution", extra, dedupSkips)
	}

	// Every receipt reads ReceiptOK from the node that accepted the
	// transaction, opened with its k_tx when sealed.
	for _, tx := range submitted {
		track.mu.Lock()
		r := track.recs[tx.hash]
		track.mu.Unlock()
		if r == nil || r.failed {
			continue
		}
		raw, found, err := nodes[r.gw].StoredReceipt(tx.hash)
		if err != nil || !found || !receiptOK(raw, tx) {
			badReceipts++
			bad("tx %x: receipt missing or not OK on node %d (found=%v err=%v)", tx.hash[:6], r.gw, found, err)
		}
	}

	// A sample goes the whole client path again.
	for i := 0; i < gateSample && len(submitted) > 0; i++ {
		tx := submitted[rng.Intn(len(submitted))]
		track.mu.Lock()
		failed := track.recs[tx.hash].failed
		track.mu.Unlock()
		if failed {
			continue
		}
		rcpt, err := sdk.WaitReceipt(tx.hash, settleTimeout)
		if err != nil {
			bad("sampled tx %x: %v", tx.hash[:6], err)
			continue
		}
		if rcpt.Witness < 2 || !receiptOK(rcpt.Raw, tx) {
			bad("sampled tx %x: witnesses=%d or receipt not OK", tx.hash[:6], rcpt.Witness)
		}
	}
	return violations, badReceipts
}
