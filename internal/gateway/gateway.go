package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/chain"
	"confide/internal/keyepoch"
	"confide/internal/node"
)

// Config tunes one gateway instance. Zero values select defaults; negative
// values disable the corresponding bound where noted.
type Config struct {
	// Node is the backing node this gateway fronts. Required.
	Node *node.Node
	// Addr is the TCP listen address ("127.0.0.1:0" by default — an
	// ephemeral port, reported by Addr()).
	Addr string
	// RateLimit is the per-client admission rate in transactions per
	// second (0 disables rate limiting).
	RateLimit float64
	// RateBurst is the per-client token-bucket capacity (default
	// 2×RateLimit, minimum 1).
	RateBurst float64
	// MaxPoolDepth sheds new submissions once the backing node's
	// uncommitted backlog (both pools plus in-flight consensus instances)
	// holds this many transactions (default 4096, negative disables).
	MaxPoolDepth int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish before connections are closed (default 5s).
	DrainTimeout time.Duration
	// DedupCap bounds the accepted-tx-hash dedup index (default 65536).
	DedupCap int
}

// Bounds no deployment tunes.
const (
	inFlightCap = 256              // concurrently-served submission requests
	batchTxsCap = 256              // transactions in one batch-submit request
	longPollCap = 30 * time.Second // one receipt long-poll park
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.RateBurst == 0 && c.RateLimit > 0 {
		c.RateBurst = 2 * c.RateLimit
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.MaxPoolDepth == 0 {
		c.MaxPoolDepth = 4096
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DedupCap <= 0 {
		c.DedupCap = 65536
	}
	return c
}

// Gateway serves the HTTP edge for one node. Start with Serve, stop with
// Close (graceful drain) or Kill (abrupt, for failover tests and chaos).
type Gateway struct {
	cfg      Config
	node     *node.Node
	srv      *http.Server
	ln       net.Listener
	limiter  *clientLimiter
	inFlight atomic.Int64
	draining atomic.Bool

	disclosures *disclosureCache

	mu      sync.Mutex
	seen    map[chain.Hash]struct{}        // accepted here; answers idempotent retries
	waiters map[chain.Hash][]chan struct{} // parked receipt long-polls
	drainCh chan struct{}                  // closed when drain starts; wakes every long-poll
	hookOff func()                         // unregisters the OnCommit hook

	closeOnce sync.Once
	closed    chan struct{}
}

// Serve starts a gateway listening on cfg.Addr. The returned gateway is
// already accepting connections.
func Serve(cfg Config) (*Gateway, error) {
	if cfg.Node == nil {
		return nil, errors.New("gateway: Config.Node is required")
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	gw := &Gateway{
		cfg:         cfg,
		node:        cfg.Node,
		ln:          ln,
		limiter:     newClientLimiter(cfg.RateLimit, cfg.RateBurst, 0),
		seen:        make(map[chain.Hash]struct{}),
		disclosures: newDisclosureCache(),
		waiters:     make(map[chain.Hash][]chan struct{}),
		drainCh:     make(chan struct{}),
		closed:      make(chan struct{}),
	}
	gw.hookOff = cfg.Node.OnCommit(gw.onCommitted)

	mux := http.NewServeMux()
	mux.Handle("GET /v1/attestation", gw.wrap("attestation", gw.handleAttestation))
	mux.Handle("POST /v1/submit", gw.wrap("submit", gw.handleSubmit))
	mux.Handle("POST /v1/submit/batch", gw.wrap("submit_batch", gw.handleSubmitBatch))
	mux.Handle("GET /v1/receipt/{hash}", gw.wrap("receipt", gw.handleReceipt))
	mux.Handle("GET /v1/header/{height}", gw.wrap("header", gw.handleHeader))
	mux.Handle("GET /v1/health", gw.wrap("health", gw.handleHealth))
	mux.Handle("POST /v1/disclosure/request", gw.wrap("disclosure_request", gw.handleDisclosureRequest))
	mux.Handle("GET /v1/disclosure/{hash}", gw.wrap("disclosure_get", gw.handleDisclosureGet))
	gw.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go gw.srv.Serve(ln)
	return gw, nil
}

// Addr reports the bound listen address (useful with an ephemeral port).
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// URL reports the gateway's base URL.
func (g *Gateway) URL() string { return "http://" + g.Addr() }

// Draining reports whether shutdown has begun.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Close drains gracefully: new submissions are refused with an explicit
// draining rejection, parked long-polls are woken and told to fail over,
// in-flight requests get DrainTimeout to finish, then connections close.
func (g *Gateway) Close() error {
	var err error
	g.closeOnce.Do(func() {
		g.draining.Store(true)
		close(g.drainCh)
		g.hookOff()
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.DrainTimeout)
		defer cancel()
		err = g.srv.Shutdown(ctx)
		g.releaseIndex()
		close(g.closed)
	})
	return err
}

// Kill stops abruptly — listener and every connection close immediately, no
// drain. This models a crashed edge for failover tests and chaos runs.
func (g *Gateway) Kill() {
	g.closeOnce.Do(func() {
		g.draining.Store(true)
		close(g.drainCh)
		g.hookOff()
		g.srv.Close()
		g.releaseIndex()
		close(g.closed)
	})
}

// onCommitted is the node's receipt-notification hook: wake every long-poll
// parked on a transaction this block committed.
func (g *Gateway) onCommitted(_ uint64, hashes []chain.Hash) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, h := range hashes {
		if chans, ok := g.waiters[h]; ok {
			for _, ch := range chans {
				close(ch)
			}
			delete(g.waiters, h)
		}
	}
}

// wrap is the per-endpoint middleware: request counter, latency histogram,
// in-flight gauge.
func (g *Gateway) wrap(endpoint string, h http.HandlerFunc) http.Handler {
	reqs, lat := endpointInstruments(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		g.inFlight.Add(1)
		mInFlight.Add(1)
		start := time.Now()
		defer func() {
			lat.Observe(time.Since(start).Seconds())
			mInFlight.Add(-1)
			g.inFlight.Add(-1)
		}()
		h(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	if body.RetryAfterMs > 0 {
		secs := (body.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, body)
}

// clientID keys the rate limiter: the SDK's stable client header when
// present, otherwise the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Confide-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admit runs the submission admission gates in order: drain state, per-client
// rate limit, backend pool depth, in-flight cap. Returns false after writing
// the rejection.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, cost float64) bool {
	if g.draining.Load() {
		mShedDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Error: CodeDraining, Detail: "gateway is draining", RetryAfterMs: 1000,
		})
		return false
	}
	if !g.limiter.allow(clientID(r), cost, time.Now()) {
		mShedRateLimit.Inc()
		writeError(w, http.StatusTooManyRequests, ErrorBody{
			Error:        CodeRateLimited,
			Detail:       "per-client rate limit exceeded",
			RetryAfterMs: g.limiter.retryAfter(cost).Milliseconds(),
		})
		return false
	}
	if d := g.cfg.MaxPoolDepth; d > 0 {
		if depth := g.node.Backlog(); depth >= d {
			mShedOverload.Inc()
			writeError(w, http.StatusServiceUnavailable, ErrorBody{
				Error: CodeOverloaded, Detail: "transaction pool saturated", RetryAfterMs: 200,
			})
			return false
		}
	}
	if g.inFlight.Load() > inFlightCap {
		mShedInflight.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Error: CodeOverloaded, Detail: "too many in-flight requests", RetryAfterMs: 100,
		})
		return false
	}
	return true
}

// checkEpoch rejects confidential envelopes sealed to an epoch the engine
// can no longer open — the window check runs on the public epoch tag, before
// any decryption, exactly like the enclave's own pre-verification. Catching
// it at the edge turns a silent pool drop into a 409 the SDK reacts to by
// refreshing the envelope key.
func (g *Gateway) checkEpoch(tx *chain.Tx) *ErrorBody {
	if tx.Type != chain.TxTypeConfidential {
		return nil
	}
	epoch, _, err := keyepoch.ParseEnvelope(tx.Payload)
	if err != nil {
		return &ErrorBody{Error: CodeBadRequest, Detail: "malformed envelope epoch tag"}
	}
	cur := g.node.CurrentEpoch()
	win := g.node.ConfidentialEngine().EpochWindow()
	if epoch < cur && cur-epoch > win {
		mStaleEpoch.Inc()
		return &ErrorBody{
			Error:  CodeStaleEpoch,
			Detail: fmt.Sprintf("envelope epoch %d outside acceptance window (current %d, window %d)", epoch, cur, win),
			Epoch:  cur,
		}
	}
	return nil
}

// submit is the one post-admission road for both submission endpoints: per
// transaction, epoch check, then the bounded dedup index, then the node's
// boundary, then the verdict. Every result is definitive (accepted /
// duplicate / committed / rejected). refused is the epoch check's full answer
// for the first transaction it turned away (nil when it passed them all): the
// single endpoint replies 409 with it, a batch carries only its code, in that
// transaction's result.
func (g *Gateway) submit(txs []*chain.Tx) (results []SubmitResult, refused *ErrorBody) {
	results = make([]SubmitResult, len(txs))
	forwarded := 0
	for i, tx := range txs {
		h := tx.Hash()
		res := &results[i]
		res.TxHash = h[:]
		if eb := g.checkEpoch(tx); eb != nil {
			if refused == nil {
				refused = eb
			}
			res.Status, res.Error = StatusRejected, eb.Error
			continue
		}
		if !g.remember(h) {
			mDedupHits.Inc()
			res.Status = StatusDuplicate
			continue
		}
		forwarded++
		switch err := g.node.SubmitTx(tx); {
		case err == nil:
			mAccepted.Inc()
			res.Status = StatusAccepted
		case errors.Is(err, node.ErrAlreadyCommitted):
			mDedupHits.Inc()
			res.Status = StatusCommitted
		case errors.Is(err, node.ErrTxTooLarge):
			g.forget(h)
			res.Status, res.Error = StatusRejected, CodeTxTooLarge
		default:
			g.forget(h)
			res.Status, res.Error = StatusRejected, CodeRejected
		}
	}
	if forwarded > 0 {
		mBatchSize.Observe(float64(forwarded))
	}
	return results, refused
}

// remember enters a hash into the dedup index, evicting at random to keep the
// index within DedupCap. Reports false when the hash was already there.
func (g *Gateway) remember(h chain.Hash) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen == nil {
		return true // shut down under a request still in flight: nothing left to answer retries
	}
	if _, dup := g.seen[h]; dup {
		return false
	}
	for len(g.seen) >= g.cfg.DedupCap {
		for k := range g.seen {
			delete(g.seen, k)
			mDedupIndexSize.Add(-1)
			break
		}
	}
	g.seen[h] = struct{}{}
	mDedupIndexSize.Add(1)
	return true
}

// forget drops a hash from the dedup index so an idempotent retry of a
// failed submission is not falsely answered "duplicate".
func (g *Gateway) forget(h chain.Hash) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.seen[h]; ok {
		delete(g.seen, h)
		mDedupIndexSize.Add(-1)
	}
}

// releaseIndex gives the dedup index back at shutdown, so the process-wide
// size gauge counts live gateways only.
func (g *Gateway) releaseIndex() {
	g.mu.Lock()
	defer g.mu.Unlock()
	mDedupIndexSize.Add(-int64(len(g.seen)))
	g.seen = nil
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !g.admit(w, r, 1) {
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
		return
	}
	// The node's own submission bound: the edge rejects before decode what
	// the node would reject after.
	tx, err := decodeSubmit(body, node.MaxTxBytes)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	results, refused := g.submit([]*chain.Tx{tx})
	if refused != nil {
		writeError(w, http.StatusConflict, *refused)
		return
	}
	writeJSON(w, http.StatusOK, results[0])
}

func (g *Gateway) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
		return
	}
	txs, err := decodeBatch(body, batchTxsCap, node.MaxTxBytes)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if !g.admit(w, r, float64(len(txs))) {
		return
	}
	results, _ := g.submit(txs)
	writeJSON(w, http.StatusOK, BatchSubmitResponse{Results: results})
}

func (g *Gateway) handleAttestation(w http.ResponseWriter, _ *http.Request) {
	engine := g.node.ConfidentialEngine()
	report, err := engine.Attest()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: CodeRejected, Detail: err.Error()})
		return
	}
	epoch, pk := engine.EnvelopeKeyInfo()
	writeJSON(w, http.StatusOK, AttestationResponse{
		Measurement: report.Measurement[:],
		ReportData:  report.ReportData[:],
		Signature:   report.Signature,
		Epoch:       epoch,
		PkTx:        pk,
		EpochWindow: engine.EpochWindow(),
		NodeID:      uint32(g.node.ID()),
		Height:      g.node.Height(),
	})
}

func (g *Gateway) handleReceipt(w http.ResponseWriter, r *http.Request) {
	h, err := parseTxHash(r.PathValue("hash"))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: "bad transaction hash"})
		return
	}
	wantProof := r.URL.Query().Get("proof") == "1"
	wait := parseWait(r.URL.Query().Get("wait"), longPollCap)

	if resp, ok := g.receiptNow(h, wantProof); ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if wait <= 0 || g.draining.Load() {
		writeJSON(w, http.StatusOK, ReceiptResponse{Found: false, Draining: g.draining.Load()})
		return
	}

	// Long-poll: register the waiter BEFORE the re-check so a commit landing
	// between lookup and park cannot be missed.
	mLongPolls.Inc()
	ch := make(chan struct{})
	g.mu.Lock()
	g.waiters[h] = append(g.waiters[h], ch)
	g.mu.Unlock()
	if resp, ok := g.receiptNow(h, wantProof); ok {
		g.dropWaiter(h, ch)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
		mLongPollWakes.Inc()
		if resp, ok := g.receiptNow(h, wantProof); ok {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		writeJSON(w, http.StatusOK, ReceiptResponse{Found: false})
	case <-g.drainCh:
		g.dropWaiter(h, ch)
		writeJSON(w, http.StatusOK, ReceiptResponse{Found: false, Draining: true})
	case <-timer.C:
		g.dropWaiter(h, ch)
		writeJSON(w, http.StatusOK, ReceiptResponse{Found: false})
	case <-r.Context().Done():
		g.dropWaiter(h, ch)
	}
}

// receiptNow performs one non-blocking receipt lookup.
func (g *Gateway) receiptNow(h chain.Hash, wantProof bool) (ReceiptResponse, bool) {
	raw, ok, err := g.node.StoredReceipt(h)
	if err != nil || !ok {
		return ReceiptResponse{}, false
	}
	resp := ReceiptResponse{Found: true, Receipt: raw}
	if wantProof {
		proof, err := g.node.ProveTx(h)
		if err != nil {
			return ReceiptResponse{}, false
		}
		resp.Height = proof.Height
		resp.Proof = wireProof(proof)
	}
	return resp, true
}

// dropWaiter unregisters one parked long-poll channel (timeout, drain, or
// client disconnect). Safe against a concurrent wake that already removed it.
func (g *Gateway) dropWaiter(h chain.Hash, ch chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	chans := g.waiters[h]
	for i, c := range chans {
		if c == ch {
			chans = append(chans[:i], chans[i+1:]...)
			break
		}
	}
	if len(chans) == 0 {
		delete(g.waiters, h)
	} else {
		g.waiters[h] = chans
	}
}

func wireProof(p *node.TxProof) *Proof {
	steps := make([]ProofStep, len(p.Path))
	for i, s := range p.Path {
		steps[i] = ProofStep{Sibling: append([]byte(nil), s.Sibling[:]...), Right: s.Right}
	}
	return &Proof{
		Header: p.HeaderBytes,
		Height: p.Height,
		Tx:     p.Tx.Encode(),
		Index:  p.Index,
		Path:   steps,
	}
}

func (g *Gateway) handleHeader(w http.ResponseWriter, r *http.Request) {
	height, err := strconv.ParseUint(r.PathValue("height"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: "bad height"})
		return
	}
	hdr, err := g.node.HeaderAt(height)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrorBody{Error: CodeNotFound, Detail: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HeaderResponse{Height: height, Header: hdr})
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		NodeID:   uint32(g.node.ID()),
		Height:   g.node.Height(),
		Epoch:    g.node.CurrentEpoch(),
		Draining: g.draining.Load(),
		InFlight: g.inFlight.Load(),
		PoolLen:  g.node.Backlog(),
	})
}

// maxBodyBytes bounds a request body, so a hostile client cannot stream
// unbounded bytes. It leaves room for a batch, and for a single transaction
// of node.MaxTxBytes after JSON and base64 inflate it by ~4/3.
const maxBodyBytes = 4 << 20

// readBody reads a body of at most maxBodyBytes.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, errors.New("request body too large")
	}
	return body, nil
}

func writeDecodeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrTooLarge):
		mOversized.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: CodeTxTooLarge, Detail: err.Error()})
	default:
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
	}
}

func parseWait(s string, max time.Duration) time.Duration {
	if s == "" {
		return 0
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		d = max
	}
	return d
}
