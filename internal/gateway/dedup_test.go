package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"confide/internal/chain"
	"confide/internal/metrics"
	"confide/internal/node"
)

// TestGatewayDedupIndexBounded feeds each submission endpoint several times
// DedupCap distinct transactions and requires the accepted-hash index never
// to exceed the cap, on either endpoint: both take the one submit road, so
// both evict. (The batch endpoint used to insert without evicting, growing
// the index by one entry per transaction forever.)
func TestGatewayDedupIndexBounded(t *testing.T) {
	const dedupCap = 8
	cluster, err := node.NewCluster(node.ClusterOptions{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	indexGauge := func() int64 {
		return metrics.Default().Snapshot().Gauges["confide_gateway_dedup_index_entries"]
	}

	post := func(t *testing.T, url string, body any, out any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	newTx := func(tag string, i int) *chain.Tx {
		return &chain.Tx{Type: chain.TxTypePublic, Payload: []byte(fmt.Sprintf("%s-%03d", tag, i))}
	}

	endpoints := map[string]func(t *testing.T, gw *Gateway, txs []*chain.Tx) []SubmitResult{
		"submit": func(t *testing.T, gw *Gateway, txs []*chain.Tx) []SubmitResult {
			results := make([]SubmitResult, len(txs))
			for i, tx := range txs {
				post(t, gw.URL()+"/v1/submit", SubmitRequest{Tx: tx.Encode()}, &results[i])
			}
			return results
		},
		"submit_batch": func(t *testing.T, gw *Gateway, txs []*chain.Tx) []SubmitResult {
			req := BatchSubmitRequest{}
			for _, tx := range txs {
				req.Txs = append(req.Txs, tx.Encode())
			}
			var resp BatchSubmitResponse
			post(t, gw.URL()+"/v1/submit/batch", req, &resp)
			return resp.Results
		},
	}
	for name, send := range endpoints {
		t.Run(name, func(t *testing.T) {
			idle := indexGauge()
			gw, err := Serve(Config{Node: cluster.Nodes[0], DedupCap: dedupCap})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Kill()
			indexLen := func() int {
				gw.mu.Lock()
				defer gw.mu.Unlock()
				return len(gw.seen)
			}
			var last *chain.Tx
			for round := 0; round < 6; round++ {
				txs := make([]*chain.Tx, 5)
				for i := range txs {
					txs[i] = newTx(name, round*len(txs)+i)
				}
				for i, res := range send(t, gw, txs) {
					if res.Status != StatusAccepted {
						t.Fatalf("round %d tx %d: status %q (%s), want accepted", round, i, res.Status, res.Error)
					}
				}
				if got := indexLen(); got > dedupCap {
					t.Fatalf("after %d transactions the dedup index holds %d entries, cap %d", (round+1)*len(txs), got, dedupCap)
				}
				last = txs[len(txs)-1]
			}
			if got := indexLen(); got != dedupCap {
				t.Errorf("index holds %d entries after 30 transactions, want it full at %d", got, dedupCap)
			}
			if got := indexGauge() - idle; got != dedupCap {
				t.Errorf("confide_gateway_dedup_index_entries rose by %d, index holds %d", got, dedupCap)
			}
			// Bounding the index must not cost it its job: a retry of a
			// transaction still in it is answered without re-entering the pool.
			if res := send(t, gw, []*chain.Tx{last}); res[0].Status != StatusDuplicate {
				t.Errorf("retry of the newest transaction: status %q, want duplicate", res[0].Status)
			}
			gw.Kill()
			if got := indexGauge(); got != idle {
				t.Errorf("gauge reads %d after the gateway died, %d before it was served", got, idle)
			}
		})
	}
}
