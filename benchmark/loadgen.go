package main

// Load generation: at most two generator goroutines in this process, each
// with one HTTP request in flight, talking to the gateways over loopback TCP.
// Generator 1 submits the pre-sealed stock in batches (open or closed loop);
// generator 2 is the probe, one SDK client walking single transactions from
// seal to opened receipt.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/chain"
	"confide/internal/gateway"
	"confide/internal/gateway/gwclient"
)

// txRec follows one submitted transaction. due is when it was scheduled to be
// sent (open loop) or when its request started (closed loop); commitAt is when
// the node whose gateway accepted it reported it through Node.OnCommit.
type txRec struct {
	due      time.Time
	commitAt time.Time
	batch    int32 // span index of the submitting batch, -1 untraced
	gw       int8  // accepting gateway; -1 for the probe, which fails over on its own
	failed   bool  // rejected, shed or errored at submission
	commits  [sutNodes]uint8
}

func (r *txRec) everywhere() bool {
	for _, c := range r.commits {
		if c == 0 {
			return false
		}
	}
	return true
}

// tracker joins submissions to the commit notifications of all four nodes.
type tracker struct {
	mu          sync.Mutex
	recs        map[chain.Hash]*txRec
	outstanding int           // accepted by a gateway, not yet committed on its node
	unsettled   int           // accepted, not yet committed on every node
	wake        chan struct{} // poked on every notification
	// committed counts the batch generator's transactions committed on their
	// accepting node; when it reaches rssAfter, rssMB takes the process's
	// peak resident set so far.
	committed, rssAfter int
	rssMB               float64
}

func newTracker(capacity int) *tracker {
	return &tracker{recs: make(map[chain.Hash]*txRec, capacity), wake: make(chan struct{}, 1)}
}

// hook is the OnCommit callback for node i. It runs on the node's apply path,
// so it only stamps and counts.
func (t *tracker) hook(i int) func(uint64, []chain.Hash) {
	return func(_ uint64, hashes []chain.Hash) {
		now := time.Now()
		t.mu.Lock()
		for _, h := range hashes {
			r := t.recs[h]
			if r == nil {
				continue
			}
			r.commits[i]++
			if r.commits[i] > 1 || r.failed {
				continue
			}
			if int(r.gw) == i {
				r.commitAt = now
				t.outstanding--
				if t.committed++; t.committed == t.rssAfter {
					t.rssMB = peakRSSMB()
				}
			}
			if r.everywhere() {
				if r.gw < 0 {
					r.commitAt = now
				}
				t.unsettled--
			}
		}
		t.mu.Unlock()
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
}

// add registers transactions about to be submitted through gateway gw.
func (t *tracker) add(txs []*stockTx, gw int, due []time.Time, batch int) {
	t.mu.Lock()
	for i, tx := range txs {
		t.recs[tx.hash] = &txRec{due: due[i], gw: int8(gw), batch: int32(batch)}
	}
	if gw >= 0 {
		t.outstanding += len(txs)
	}
	t.unsettled += len(txs)
	t.mu.Unlock()
}

// fail marks a submission the gateway did not accept.
func (t *tracker) fail(h chain.Hash) {
	t.mu.Lock()
	if r := t.recs[h]; r != nil && !r.failed {
		r.failed = true
		if r.gw >= 0 && r.commitAt.IsZero() {
			t.outstanding--
		}
		if !r.everywhere() {
			t.unsettled--
		}
	}
	t.mu.Unlock()
}

func (t *tracker) counts() (outstanding, unsettled int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outstanding, t.unsettled
}

// settle waits until every accepted transaction has committed on every node.
func (t *tracker) settle(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if _, u := t.counts(); u == 0 {
			return true
		}
		select {
		case <-t.wake:
		case <-time.After(10 * time.Millisecond):
		case <-deadline.C:
			return false
		}
	}
}

// batchGen is generator 1.
type batchGen struct {
	w        workload
	stock    []*stockTx
	schedule []time.Duration // open loop: due time of each batch, from t0
	urls     []string
	http     *http.Client
	track    *tracker
	spans    *spanLog
	stop     *atomic.Bool
	next     int // next stock index
	batches  int
	// lateness of each open-loop batch: send start minus due time.
	lateness []lateSample
	// exhausted is set when the stock ran out before stop.
	exhausted time.Time
}

type lateSample struct {
	at   time.Time
	late time.Duration
}

// latenessIn returns, in seconds, how late the batches due in w went out.
func (g *batchGen) latenessIn(w window) []float64 {
	var out []float64
	for _, l := range g.lateness {
		if w.has(l.at) {
			out = append(out, l.late.Seconds())
		}
	}
	return out
}

func (g *batchGen) run(t0 time.Time) {
	if g.w.openRate > 0 {
		g.runOpen(t0)
	} else {
		g.runClosed()
	}
}

// runOpen sends on the seeded schedule whatever the system does: every
// transaction is timed from the instant its batch fell due, and when the one
// request in flight overruns, the batches that fell due meanwhile go out
// together in the next request.
func (g *batchGen) runOpen(t0 time.Time) {
	per := len(g.stock) / len(g.schedule)
	for k := 0; !g.stop.Load(); {
		if k == len(g.schedule) {
			g.exhausted = time.Now()
			return
		}
		if d := time.Until(t0.Add(g.schedule[k])); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		var txs []*stockTx
		var due []time.Time
		for ; k < len(g.schedule) && len(txs)+per <= maxBatchTxs && !t0.Add(g.schedule[k]).After(now); k++ {
			at := t0.Add(g.schedule[k])
			g.lateness = append(g.lateness, lateSample{at: at, late: now.Sub(at)})
			for i := 0; i < per; i++ {
				due = append(due, at)
			}
			txs = append(txs, g.stock[g.next:g.next+per]...)
			g.next += per
		}
		g.submit(txs, due)
	}
}

// runClosed keeps closedWindow transactions submitted and not yet committed,
// topping up as commit notifications arrive.
func (g *batchGen) runClosed() {
	const topUp = 64 // one block's worth; smaller requests only after a pause
	for !g.stop.Load() {
		outstanding, _ := g.track.counts()
		need := closedWindow - outstanding
		if need < topUp {
			select {
			case <-g.track.wake:
				continue
			case <-time.After(2 * time.Millisecond):
				if need <= 0 {
					continue
				}
			}
		}
		n := min(need, maxBatchTxs, len(g.stock)-g.next)
		if n == 0 {
			g.exhausted = time.Now()
			return
		}
		now := time.Now()
		due := make([]time.Time, n)
		for i := range due {
			due[i] = now
		}
		txs := g.stock[g.next : g.next+n]
		g.next += n
		g.submit(txs, due)
	}
}

// submit posts one batch to the next gateway in turn.
func (g *batchGen) submit(txs []*stockTx, due []time.Time) {
	gw := g.batches % len(g.urls)
	g.batches++
	root := g.spans.begin("loadgen.batch", -1, fmt.Sprintf("b%d", g.batches))
	g.spans.setTxs(root, len(txs))
	g.track.add(txs, gw, due, root)

	wires := make([][]byte, len(txs))
	for i, tx := range txs {
		wires[i] = tx.wire
	}
	body, _ := json.Marshal(gateway.BatchSubmitRequest{Txs: wires}) // cannot fail: byte slices only
	post := g.spans.begin("gateway.submit_batch", root, "")
	var resp gateway.BatchSubmitResponse
	err := postJSON(g.http, g.urls[gw]+"/v1/submit/batch", body, &resp)
	g.spans.end(post)
	g.spans.end(root)
	if err != nil || len(resp.Results) != len(txs) {
		for _, tx := range txs {
			g.track.fail(tx.hash)
		}
		return
	}
	for i, res := range resp.Results {
		if res.Status != gateway.StatusAccepted {
			g.track.fail(txs[i].hash)
		}
	}
}

func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	return decodeJSON(url, resp, err, out)
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	return decodeJSON(url, resp, err, out)
}

// decodeJSON finishes an HTTP exchange: any status but 200 is an error.
func decodeJSON(url string, resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// probe is generator 2: seal, submit through the SDK with fail-over,
// long-poll for the receipt with its SPV proof and header quorum, open it.
type probe struct {
	w      workload
	to     chain.Address
	calls  []call
	sealer *sealer
	sdk    *gwclient.Client
	urls   []string
	http   *http.Client
	track  *tracker
	spans  *spanLog
	stop   *atomic.Bool
	ops    []probeOp
}

type probeOp struct {
	start, end time.Time
	ok         bool
}

func (p *probe) run() {
	for i := 0; !p.stop.Load(); i++ {
		c := p.calls[i%len(p.calls)]
		op := probeOp{start: time.Now()}
		op.ok = p.once(c, op.start)
		op.end = time.Now()
		p.ops = append(p.ops, op)
	}
}

func (p *probe) once(c call, start time.Time) bool {
	root := p.spans.begin("probe.op", -1, "")
	defer p.spans.end(root)

	s := p.spans.begin("probe.seal", root, "")
	tx, err := p.sealer.seal(p.w.confidential, p.to, c.method, c.args)
	p.spans.end(s)
	if err != nil {
		return false
	}
	p.spans.setID(root, hex.EncodeToString(tx.hash[:8]))
	p.track.add([]*stockTx{tx}, -1, []time.Time{start}, root)

	wire, err := chain.DecodeTx(tx.wire)
	if err != nil {
		p.track.fail(tx.hash)
		return false
	}
	s = p.spans.begin("probe.submit", root, "")
	err = p.sdk.SubmitTx(wire)
	p.spans.end(s)
	if err != nil {
		p.track.fail(tx.hash)
		return false
	}

	s = p.spans.begin("probe.wait_receipt", root, "")
	rcpt, err := p.sdk.WaitReceipt(tx.hash, settleTimeout)
	p.spans.end(s)
	if err != nil {
		return false
	}

	s = p.spans.begin("probe.open_receipt", root, "")
	ok := receiptOK(rcpt.Raw, tx)
	p.spans.end(s)

	if p.spans.on.Load() {
		p.dissect(tx, root)
	}
	return ok
}

// dissect repeats, outside the timed operation, the two steps WaitReceipt
// performs internally, so a trace can say how a receipt wait divides between
// the long-poll, the Merkle check and the header quorum.
func (p *probe) dissect(tx *stockTx, root int) {
	var rr gateway.ReceiptResponse
	url := fmt.Sprintf("%s/v1/receipt/%s?proof=1", p.urls[0], hex.EncodeToString(tx.hash[:]))
	if getJSON(p.http, url, &rr) != nil || !rr.Found {
		return
	}
	s := p.spans.begin("probe.verify_proof", root, "")
	_, err := gateway.VerifyProof(rr.Proof)
	p.spans.end(s)
	if err != nil {
		return
	}
	s = p.spans.begin("probe.header_quorum", root, "")
	agree, quorum := 0, (len(p.urls)-1)/3+1
	for _, u := range p.urls {
		var hr gateway.HeaderResponse
		if getJSON(p.http, fmt.Sprintf("%s/v1/header/%d", u, rr.Proof.Height), &hr) == nil && bytes.Equal(hr.Header, rr.Proof.Header) {
			if agree++; agree >= quorum {
				break
			}
		}
	}
	p.spans.end(s)
}

// receiptOK decodes a stored receipt (opening it with k_tx when sealed) and
// reports whether the transaction executed successfully.
func receiptOK(raw []byte, tx *stockTx) bool {
	var rcpt *chain.Receipt
	var err error
	if tx.ktx != nil {
		rcpt, err = gwclient.OpenReceipt(raw, tx.ktx, tx.hash)
	} else {
		rcpt, err = chain.DecodeReceipt(raw)
	}
	return err == nil && rcpt.Status == chain.ReceiptOK && rcpt.TxHash == tx.hash
}
