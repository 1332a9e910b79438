package gateway_test

// End-to-end tests of the attested network edge: every byte between client
// and cluster crosses a real TCP connection — attestation fetch, envelope
// submission, receipt long-poll, SPV proof and header quorum. No in-process
// shortcuts: the SDK client only ever sees gateway URLs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/chaos"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/gateway"
	"confide/internal/gateway/gwclient"
	"confide/internal/node"
)

// ledgerSrc mirrors the node-test ledger: per-account balances with a
// credit operation and a read that outputs the balance byte — which is what
// lets a test prove exactly-once execution from receipts alone.
const ledgerSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}
fn arg(buf, idx) -> int {
	let mlen = u16at(buf);
	let p = buf + 2 + mlen + 2;
	let i = 0;
	while i < idx {
		p = p + 4 + u32at(p);
		i = i + 1;
	}
	return p;
}
fn balance(acct) -> int {
	let tmp = alloc(8);
	let n = storage_get(acct, 8, tmp, 8);
	if n < 1 { return 0; }
	return load8(tmp);
}
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	if c == 99 { // 'c'redit
		let acct = arg(buf, 0) + 4;
		let amt = load8(arg(buf, 1) + 4);
		let tmp = alloc(8);
		store8(tmp, balance(acct) + amt);
		storage_set(acct, 8, tmp, 1);
	}
	if c == 114 { // 'r'ead
		let racct = arg(buf, 0) + 4;
		let out = alloc(8);
		store8(out, balance(racct));
		output(out, 1);
	}
}
`

var ledgerAddr = chain.AddressFromBytes([]byte("gwledger"))

// testNet is a 4-node cluster fronted by one gateway per node, with the
// nodes cutting their own blocks (StartDriver) — the full remote topology.
type testNet struct {
	cluster  *node.Cluster
	gateways []*gateway.Gateway
	urls     []string
}

func startNet(t *testing.T, gwCfg gateway.Config) *testNet {
	t.Helper()
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			EngineOpts: core.AllOptimizations(),
			Consensus: consensus.Options{
				ViewTimeout:        250 * time.Millisecond,
				RetransmitInterval: 20 * time.Millisecond,
				RetransmitMax:      200 * time.Millisecond,
				HeartbeatInterval:  30 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	mod, err := ccl.CompileCVM(ledgerSrc)
	if err != nil {
		t.Fatal(err)
	}
	owner := chain.AddressFromBytes([]byte("own"))
	if err := cluster.DeployEverywhere(ledgerAddr, owner, core.VMCVM, mod.Encode(), true, 1); err != nil {
		t.Fatal(err)
	}
	stop := cluster.StartDriver(0)
	t.Cleanup(stop)

	n := &testNet{cluster: cluster}
	for _, nd := range cluster.Nodes {
		cfg := gwCfg
		cfg.Node = nd
		gw, err := gateway.Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Kill)
		n.gateways = append(n.gateways, gw)
		n.urls = append(n.urls, gw.URL())
	}
	return n
}

func (n *testNet) dial(t *testing.T) *gwclient.Client {
	t.Helper()
	client, err := gwclient.Dial(gwclient.Config{
		Gateways:    n.urls,
		Verifier:    n.cluster.Root.Verifier(),
		Measurement: n.cluster.Nodes[0].ConfidentialEngine().Enclave().Measurement(),
		ReceiptWait: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// rotateTo orders governance rotations until every node runs epoch target,
// feeding filler traffic so the chain reaches each activation height.
func (n *testNet) rotateTo(t *testing.T, client *gwclient.Client, target uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for n.cluster.CurrentEpoch() < target {
		_, rot, err := n.cluster.RotateEpoch(3)
		if err != nil {
			t.Fatal(err)
		}
		want := rot.NewEpoch
		for {
			if time.Now().After(deadline) {
				t.Fatalf("epoch %d never activated on all nodes", want)
			}
			done := true
			for _, nd := range n.cluster.Nodes {
				if nd.CurrentEpoch() < want {
					done = false
					break
				}
			}
			if done {
				break
			}
			// Filler keeps blocks flowing toward the activation height.
			if _, _, err := client.SubmitConfidential(ledgerAddr, "credit", []byte("fillacct"), []byte{1}); err != nil {
				t.Logf("filler submit: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// readBalance proves a balance through the full remote flow: a confidential
// read transaction, its SPV-verified receipt, opened with k_tx.
func readBalance(t *testing.T, client *gwclient.Client, acctName string) byte {
	t.Helper()
	hash, ktx, err := client.SubmitConfidential(ledgerAddr, "read", []byte(acctName))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := client.WaitReceipt(hash, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := gwclient.OpenReceipt(rcpt.Raw, ktx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Status != chain.ReceiptOK {
		t.Fatalf("read receipt status %d: %s", opened.Status, opened.Output)
	}
	if len(opened.Output) != 1 {
		t.Fatalf("read output %x", opened.Output)
	}
	return opened.Output[0]
}

// TestGatewayEndToEnd drives the acceptance-criteria flow entirely over TCP:
// attestation verify → envelope submit → commit → SPV-verified receipt
// against a header quorum — then again across two key-epoch rotations, where
// the client's sealed envelope goes stale at the edge and the SDK recovers
// by re-running the attested key exchange.
func TestGatewayEndToEnd(t *testing.T) {
	net := startNet(t, gateway.Config{})
	client := net.dial(t)

	hash, ktx, err := client.SubmitConfidential(ledgerAddr, "credit", []byte("acct-e2e"), []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := client.WaitReceipt(hash, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Witness < 2 {
		t.Fatalf("receipt vouched by %d gateways, want ≥ 2", rcpt.Witness)
	}
	opened, err := gwclient.OpenReceipt(rcpt.Raw, ktx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Status != chain.ReceiptOK {
		t.Fatalf("receipt status %d: %s", opened.Status, opened.Output)
	}
	if got := readBalance(t, client, "acct-e2e"); got != 7 {
		t.Fatalf("balance = %d, want 7", got)
	}

	// Two rotations push the client's epoch-1 key outside the acceptance
	// window (width 1): the next envelope must bounce with stale_epoch and
	// the SDK must refresh + re-seal transparently.
	if client.Epoch() != 1 {
		t.Fatalf("client epoch = %d before rotation", client.Epoch())
	}
	net.rotateTo(t, client, 3)
	hash2, ktx2, err := client.SubmitConfidential(ledgerAddr, "credit", []byte("acct-e2e"), []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if client.Epoch() < 3 {
		t.Fatalf("client epoch = %d after rotations, want ≥ 3 (stale-epoch refresh did not run)", client.Epoch())
	}
	rcpt2, err := client.WaitReceipt(hash2, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opened2, err := gwclient.OpenReceipt(rcpt2.Raw, ktx2, hash2)
	if err != nil {
		t.Fatal(err)
	}
	if opened2.Status != chain.ReceiptOK {
		t.Fatalf("post-rotation receipt status %d: %s", opened2.Status, opened2.Output)
	}
	if got := readBalance(t, client, "acct-e2e"); got != 12 {
		t.Fatalf("balance = %d, want 12", got)
	}
}

// TestGatewayFailoverNoDuplicateCommit kills a gateway mid-traffic and lets
// the SDK retry the same wire transaction against the survivors, then proves
// from committed state that the transaction executed exactly once.
func TestGatewayFailoverNoDuplicateCommit(t *testing.T) {
	net := startNet(t, gateway.Config{})
	client := net.dial(t)

	// Pre-warm: make sure the network commits. Account names are exactly 8
	// bytes — the ledger contract keys storage on an 8-byte account id.
	if got := readBalance(t, client, "acct-fo1"); got != 0 {
		t.Fatalf("initial balance = %d", got)
	}

	hash, ktx, err := client.SubmitConfidential(ledgerAddr, "credit", []byte("acct-fo1"), []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	// Kill one edge mid-traffic, then re-submit the identical wire bytes
	// through every surviving gateway — the worst-case retry storm an
	// uncertain client can produce.
	net.gateways[0].Kill()
	raw, err := json.Marshal(gateway.SubmitRequest{Tx: mustProveTxBytes(t, net, hash)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, url := range net.urls[1:] {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			resp, err := http.Post(u+"/v1/submit", "application/json", bytes.NewReader(raw))
			if err == nil {
				resp.Body.Close()
			}
		}(url)
	}
	wg.Wait()

	rcpt, err := client.WaitReceipt(hash, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := gwclient.OpenReceipt(rcpt.Raw, ktx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Status != chain.ReceiptOK {
		t.Fatalf("receipt status %d", opened.Status)
	}
	// Exactly-once: the retry storm must not have credited twice.
	if got := readBalance(t, client, "acct-fo1"); got != 9 {
		t.Fatalf("balance = %d after retry storm, want exactly 9", got)
	}
}

// mustProveTxBytes recovers the committed-or-pooled wire bytes of a
// transaction the SDK submitted, for byte-identical re-submission. The SDK
// does not expose its wire bytes, so the test re-encodes from a node pool
// walk — if the tx already committed, ProveTx serves it.
func mustProveTxBytes(t *testing.T, net *testNet, hash chain.Hash) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, nd := range net.cluster.Nodes {
			if p, err := nd.ProveTx(hash); err == nil {
				return p.Tx.Encode()
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("transaction never committed anywhere")
	return nil
}

// TestGatewayLongPollDelivery parks a receipt request before the
// transaction is submitted and requires the commit notification to complete
// it with a verifiable proof.
func TestGatewayLongPollDelivery(t *testing.T) {
	net := startNet(t, gateway.Config{})

	// Build the envelope locally so its hash is known before any gateway has
	// seen it — the poll must genuinely park.
	epoch, pk := net.cluster.EnvelopeKeyInfo()
	cc, err := core.NewClient(pk)
	if err != nil {
		t.Fatal(err)
	}
	cc.SetEnvelopeKey(epoch, pk)
	tx, _, err := cc.NewConfidentialTx(ledgerAddr, "credit", []byte("acct-lp"), []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	hash := tx.Hash()

	// Park the poll on gateway 1; submit later through gateway 2 — the
	// commit notification must cross nodes and wake the parked request.
	type pollResult struct {
		resp gateway.ReceiptResponse
		err  error
	}
	got := make(chan pollResult, 1)
	go func() {
		var pr pollResult
		url := fmt.Sprintf("%s/v1/receipt/%x?proof=1&wait=15000", net.urls[1], hash[:])
		resp, err := http.Get(url)
		if err != nil {
			pr.err = err
		} else {
			defer resp.Body.Close()
			pr.err = json.NewDecoder(resp.Body).Decode(&pr.resp)
		}
		got <- pr
	}()
	time.Sleep(300 * time.Millisecond) // let the poll park

	raw, _ := json.Marshal(gateway.SubmitRequest{Tx: tx.Encode()})
	resp, err := http.Post(net.urls[2]+"/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	select {
	case pr := <-got:
		if pr.err != nil {
			t.Fatal(pr.err)
		}
		if !pr.resp.Found || pr.resp.Proof == nil {
			t.Fatalf("parked poll completed without receipt+proof: %+v", pr.resp)
		}
		proven, err := gateway.VerifyProof(pr.resp.Proof)
		if err != nil {
			t.Fatal(err)
		}
		if proven.Hash() != hash {
			t.Fatal("proof vouches for a different transaction")
		}
	case <-time.After(12 * time.Second):
		t.Fatal("parked long-poll never woke after commit")
	}
}

// TestGatewayGracefulDrain verifies the drain protocol: parked long-polls
// are woken with the drain marker, new submissions are refused with an
// explicit draining rejection, and shutdown completes.
func TestGatewayGracefulDrain(t *testing.T) {
	net := startNet(t, gateway.Config{DrainTimeout: 3 * time.Second})
	gw := net.gateways[0]

	// Park a long-poll on a hash that will never commit.
	var bogus chain.Hash
	bogus[0] = 0xaa
	type pollResult struct {
		resp gateway.ReceiptResponse
		err  error
	}
	got := make(chan pollResult, 1)
	go func() {
		var pr pollResult
		url := fmt.Sprintf("%s/v1/receipt/%x?wait=20000", gw.URL(), bogus[:])
		resp, err := http.Get(url)
		if err != nil {
			pr.err = err
		} else {
			defer resp.Body.Close()
			pr.err = json.NewDecoder(resp.Body).Decode(&pr.resp)
		}
		got <- pr
	}()
	time.Sleep(300 * time.Millisecond) // let the poll park

	done := make(chan error, 1)
	go func() { done <- gw.Close() }()

	select {
	case pr := <-got:
		if pr.err != nil {
			t.Fatalf("parked long-poll errored during drain: %v", pr.err)
		}
		if !pr.resp.Draining || pr.resp.Found {
			t.Fatalf("parked long-poll got %+v, want draining hand-off", pr.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked long-poll was not woken by drain")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not complete")
	}

	// The drained gateway is gone; the rest of the fleet still serves.
	if _, err := http.Get(gw.URL() + "/v1/health"); err == nil {
		t.Fatal("drained gateway still accepting connections")
	}
	client := net.dial(t)
	if got := readBalance(t, client, "acct-drain"); got != 0 {
		t.Fatalf("surviving gateways broken: balance %d", got)
	}
}

// TestGatewayAdmissionShedding drives the two load-shedding gates
// deterministically: the per-client token bucket and the pool-depth
// overload gate, both of which must answer with machine-readable rejections
// and Retry-After.
func TestGatewayAdmissionShedding(t *testing.T) {
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node:  node.Config{EngineOpts: core.AllOptimizations()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	// No driver: the pool only fills, so the overload gate is deterministic.

	gw, err := gateway.Serve(gateway.Config{
		Node:      cluster.Nodes[0],
		RateLimit: 2, RateBurst: 2,
		MaxPoolDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Kill)

	client, err := core.NewClient(cluster.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}
	submit := func(clientID string) (int, gateway.ErrorBody, gateway.SubmitResult) {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", []byte("a"), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(gateway.SubmitRequest{Tx: tx.Encode()})
		req, _ := http.NewRequest(http.MethodPost, gw.URL()+"/v1/submit", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Confide-Client", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb gateway.ErrorBody
		var sr gateway.SubmitResult
		if resp.StatusCode == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&sr)
		} else {
			json.NewDecoder(resp.Body).Decode(&eb)
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("HTTP %d rejection without Retry-After", resp.StatusCode)
			}
		}
		return resp.StatusCode, eb, sr
	}

	// Gate 1 — rate limit: burst of 2, so the third rapid submission from
	// the same client must bounce with rate_limited.
	st, _, _ := submit("chatty")
	if st != http.StatusOK {
		t.Fatalf("first submission: HTTP %d", st)
	}
	st, _, _ = submit("chatty")
	if st != http.StatusOK {
		t.Fatalf("second submission: HTTP %d", st)
	}
	st, eb, _ := submit("chatty")
	if st != http.StatusTooManyRequests || eb.Error != gateway.CodeRateLimited {
		t.Fatalf("third submission: HTTP %d %q, want 429 rate_limited", st, eb.Error)
	}

	// Gate 2 — overload: the two accepted transactions saturate
	// MaxPoolDepth=2 (no driver drains the pool), so a different client is
	// shed with overloaded.
	st, eb, _ = submit("other-client")
	if st != http.StatusServiceUnavailable || eb.Error != gateway.CodeOverloaded {
		t.Fatalf("over-depth submission: HTTP %d %q, want 503 overloaded", st, eb.Error)
	}
}

// TestGatewayOversizedRejected pushes a transaction over the edge's wire
// bound and requires the distinct tx_too_large rejection.
func TestGatewayOversizedRejected(t *testing.T) {
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node:  node.Config{EngineOpts: core.AllOptimizations()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	gw, err := gateway.Serve(gateway.Config{Node: cluster.Nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Kill)

	big := &chain.Tx{Type: chain.TxTypePublic, Payload: bytes.Repeat([]byte{0x55}, node.MaxTxBytes)}
	raw, _ := json.Marshal(gateway.SubmitRequest{Tx: big.Encode()})
	resp, err := http.Post(gw.URL()+"/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb gateway.ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error != gateway.CodeTxTooLarge {
		t.Fatalf("oversized submission: HTTP %d %q, want 413 tx_too_large", resp.StatusCode, eb.Error)
	}
}

// TestChaosGatewayKills runs the seeded chaos drill with the workload routed
// through HTTP gateways and two mid-traffic gateway kills on top of the
// usual leader crash and partition — certified from the registry that every
// commit entered through the edge.
func TestChaosGatewayKills(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill in -short mode")
	}
	report, err := chaos.Run(chaos.Options{
		Txs:           16,
		Seed:          7,
		DropRate:      -1, // lossless: isolate the gateway faults
		DuplicateRate: -1,
		ReorderRate:   -1,
		GatewayKills:  2,
		FaultFor:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Metrics["confide_gateway_accepted_txs_total"] < uint64(report.Txs) {
		t.Fatalf("gateway accepts %d < %d txs", report.Metrics["confide_gateway_accepted_txs_total"], report.Txs)
	}
	t.Logf("chaos(gateway kills): height=%d elapsed=%s events=%v",
		report.Height, report.Elapsed.Round(time.Millisecond), report.Events)
}
