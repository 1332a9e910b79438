// Package gwclient is the Go SDK for the gateway edge: the remote client
// from the paper's deployment model. It trusts no gateway — before using an
// envelope key it verifies the engine's remote-attestation report against
// the manufacturer root and the expected enclave measurement (pk_tx's
// fingerprint is locked inside the signed report, so a hostile edge cannot
// substitute its own key); it retries submissions idempotently across
// alternate gateways when one dies or sheds; it refreshes the envelope key
// and re-seals when a key-epoch rotation invalidates what it holds; and it
// accepts a receipt only after SPV verification — a Merkle inclusion proof
// checked locally, plus header agreement from a quorum of independent
// gateways (§3.3 consensus read).
package gwclient

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/gateway"
	"confide/internal/tee"
)

// Config configures one SDK client.
type Config struct {
	// Gateways are the base URLs ("http://host:port") of the gateway nodes
	// this client may talk to. At least one is required; receipts need
	// Quorum of them reachable.
	Gateways []string
	// Verifier is the manufacturer root public key that signs attestation
	// reports. Required for confidential transactions.
	Verifier *ecdsa.PublicKey
	// Measurement is the expected enclave measurement. An engine whose
	// report carries a different measurement is rejected.
	Measurement [32]byte
	// ClientID is a stable identity sent as X-Confide-Client, keying the
	// gateway's per-client rate limiter. Defaults to a random hex tag.
	ClientID string
	// Quorum is how many independent gateways must agree on a block header
	// before a receipt's proof is accepted. Defaults to f+1 for
	// len(Gateways) = 3f+1 — i.e. (len(Gateways)-1)/3 + 1.
	Quorum int
	// HTTPTimeout bounds one HTTP exchange (default 15s; long-polls extend
	// it by their wait).
	HTTPTimeout time.Duration
	// ReceiptWait is the long-poll park per receipt attempt (default 5s).
	ReceiptWait time.Duration
	// MaxAttempts bounds failover retries for one submission (default
	// 2×len(Gateways)).
	MaxAttempts int
	// RetryBaseDelay is the first backoff between failover attempts
	// (default 25ms). Each further attempt doubles it, jittered ±50%.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 2s). A gateway's
	// Retry-After hint is honored even when it exceeds the computed backoff,
	// but never past this cap.
	RetryMaxDelay time.Duration
	// RetryBudget caps the total time one SubmitTx call may spend sleeping
	// between attempts (default 10s). Once spent, the call returns the last
	// error even if attempts remain.
	RetryBudget time.Duration
}

// APIError is a structured rejection from a gateway.
type APIError struct {
	Status     int
	Code       string
	Detail     string
	RetryAfter time.Duration
	Epoch      uint64 // current epoch, on stale_epoch rejections
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gateway rejected: %s (%d): %s", e.Code, e.Status, e.Detail)
}

// ErrNoGateway reports that every configured gateway failed.
var ErrNoGateway = errors.New("gwclient: no gateway reachable")

// ErrNoQuorum reports that too few gateways vouched for a receipt's header.
var ErrNoQuorum = errors.New("gwclient: header quorum not reached")

// ErrReceiptTimeout reports that the receipt did not appear in time.
var ErrReceiptTimeout = errors.New("gwclient: timed out waiting for receipt")

// Client is a remote SDK client. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu   sync.Mutex
	core *core.Client

	cursor atomic.Uint64 // round-robin gateway cursor
}

// Dial creates a client and performs the initial attested key exchange:
// fetch an attestation report from some reachable gateway, verify it against
// the manufacturer root and expected measurement, and adopt the engine's
// pk_tx for the reported epoch. No gateway is trusted in this exchange —
// only the manufacturer signature is.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Gateways) == 0 {
		return nil, errors.New("gwclient: no gateways configured")
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = (len(cfg.Gateways)-1)/3 + 1
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 15 * time.Second
	}
	if cfg.ReceiptWait <= 0 {
		cfg.ReceiptWait = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2 * len(cfg.Gateways)
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 25 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 2 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 10 * time.Second
	}
	cc, err := core.NewClient(nil)
	if err != nil {
		return nil, err
	}
	if cfg.ClientID == "" {
		cfg.ClientID = func() string { a := cc.Address(); return hex.EncodeToString(a[:8]) }()
	}
	c := &Client{
		cfg:  cfg,
		http: &http.Client{Timeout: cfg.HTTPTimeout},
		core: cc,
	}
	if cfg.Verifier != nil {
		if err := c.Refresh(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Address returns the client's on-chain address.
func (c *Client) Address() chain.Address {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Address()
}

// Epoch reports the key epoch the client currently seals envelopes to.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.EnvelopeEpoch()
}

// Refresh re-runs the attested key exchange: fetch a fresh report, verify
// the manufacturer signature, the enclave measurement, and the pk_tx
// fingerprint binding, then adopt the reported epoch's envelope key. Called
// automatically when a submission bounces with stale_epoch.
func (c *Client) Refresh() error {
	if c.cfg.Verifier == nil {
		return errors.New("gwclient: no attestation verifier configured")
	}
	var lastErr error = ErrNoGateway
	for range c.cfg.Gateways {
		base := c.nextGateway()
		var resp gateway.AttestationResponse
		if err := c.getJSON(base+"/v1/attestation", &resp); err != nil {
			lastErr = err
			continue
		}
		report, err := wireReport(&resp)
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		if err := c.core.VerifyEngine(report, c.cfg.Verifier, c.cfg.Measurement, resp.PkTx); err != nil {
			c.mu.Unlock()
			// A forged or mismatched report is a security signal, not a
			// transient fault — fail the refresh outright.
			return fmt.Errorf("gwclient: attestation from %s failed verification: %w", base, err)
		}
		c.core.SetEnvelopeKey(resp.Epoch, resp.PkTx)
		c.mu.Unlock()
		return nil
	}
	return lastErr
}

func wireReport(a *gateway.AttestationResponse) (tee.Report, error) {
	var r tee.Report
	if len(a.Measurement) != len(r.Measurement) || len(a.ReportData) != len(r.ReportData) {
		return r, errors.New("gwclient: malformed attestation report")
	}
	copy(r.Measurement[:], a.Measurement)
	copy(r.ReportData[:], a.ReportData)
	r.Signature = a.Signature
	return r, nil
}

// nextGateway advances the round-robin cursor.
func (c *Client) nextGateway() string {
	i := c.cursor.Add(1)
	return c.cfg.Gateways[int(i)%len(c.cfg.Gateways)]
}

// SubmitPublic builds, signs, and submits a plaintext transaction with
// gateway failover. Returns the transaction hash.
func (c *Client) SubmitPublic(contract chain.Address, method string, args ...[]byte) (chain.Hash, error) {
	c.mu.Lock()
	tx, err := c.core.NewPublicTx(contract, method, args...)
	c.mu.Unlock()
	if err != nil {
		return chain.Hash{}, err
	}
	return tx.Hash(), c.SubmitTx(tx)
}

// SubmitConfidential seals a confidential transaction as a digital envelope
// under the engine's attested pk_tx and submits it with failover. When the
// edge rejects the envelope's key epoch as stale (the engine rotated), the
// client re-runs the attested key exchange and re-seals under the fresh
// epoch automatically. Returns the final transaction hash and k_tx (the
// per-transaction key that opens the sealed receipt).
func (c *Client) SubmitConfidential(contract chain.Address, method string, args ...[]byte) (chain.Hash, []byte, error) {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		tx, ktx, err := c.core.NewConfidentialTx(contract, method, args...)
		c.mu.Unlock()
		if err != nil {
			return chain.Hash{}, nil, err
		}
		err = c.SubmitTx(tx)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == gateway.CodeStaleEpoch && attempt < 2 {
			if rerr := c.Refresh(); rerr != nil {
				return chain.Hash{}, nil, fmt.Errorf("gwclient: stale epoch and refresh failed: %w", rerr)
			}
			continue // re-seal under the fresh epoch
		}
		if err != nil {
			return chain.Hash{}, nil, err
		}
		return tx.Hash(), ktx, nil
	}
}

// SubmitTx submits one pre-built wire transaction, failing over across
// gateways. Retrying the same bytes is idempotent end to end: a gateway that
// saw the hash answers "duplicate", a node that committed it answers
// "committed", and the dedup-at-execution index guarantees at most one
// commit regardless.
func (c *Client) SubmitTx(tx *chain.Tx) error {
	req, err := json.Marshal(gateway.SubmitRequest{Tx: tx.Encode()})
	if err != nil {
		return err
	}
	var lastErr error = ErrNoGateway
	var slept time.Duration
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		base := c.nextGateway()
		var res gateway.SubmitResult
		err := c.postJSON(base+"/v1/submit", req, &res)
		if err == nil {
			if res.Status == gateway.StatusRejected {
				return &APIError{Status: http.StatusOK, Code: res.Error, Detail: "node rejected transaction"}
			}
			return nil // accepted, duplicate, or committed — all terminal successes
		}
		lastErr = err
		var hint time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			switch apiErr.Code {
			case gateway.CodeStaleEpoch, gateway.CodeBadRequest, gateway.CodeTxTooLarge:
				return err // deterministic — no other gateway will differ
			}
			hint = apiErr.RetryAfter
		}
		// Draining / overloaded / rate-limited / network error: back off,
		// then fail over to the next gateway. A fleet-wide brownout must not
		// turn every client into a synchronized retry stampede, so the
		// exponential delay is jittered; the server's Retry-After hint wins
		// when it asks for more.
		if attempt == c.cfg.MaxAttempts-1 {
			break // no sleep after the final attempt
		}
		delay := c.backoff(attempt, hint)
		if slept+delay > c.cfg.RetryBudget {
			return fmt.Errorf("gwclient: retry budget exhausted after %d attempts: %w", attempt+1, lastErr)
		}
		time.Sleep(delay)
		slept += delay
	}
	return lastErr
}

// backoff computes the sleep before retry attempt+1: exponential from
// RetryBaseDelay, jittered ±50% so concurrent clients desynchronize, floored
// by the server's Retry-After hint, and capped at RetryMaxDelay.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := c.cfg.RetryBaseDelay << uint(attempt)
	if d <= 0 || d > c.cfg.RetryMaxDelay { // shift overflow guard
		d = c.cfg.RetryMaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // uniform in [d/2, 3d/2)
	if hint > d {
		d = hint
	}
	if d > c.cfg.RetryMaxDelay {
		d = c.cfg.RetryMaxDelay
	}
	return d
}

// Receipt is an SPV-verified receipt: the raw (possibly sealed) receipt
// bytes plus the proof material that vouched for it.
type Receipt struct {
	Raw     []byte // sealed under k_tx for confidential transactions
	Height  uint64
	Header  []byte // canonical header bytes the quorum agreed on
	Witness int    // gateways that vouched for the header
}

// WaitReceipt long-polls for a transaction's receipt and SPV-verifies it:
// the inclusion proof must check out locally (the transaction hashes to the
// proven leaf, the Merkle path lands on the header's TxRoot) and Quorum
// independent gateways must report the same header at that height. No single
// gateway — including the one that served the receipt — is trusted alone.
func (c *Client) WaitReceipt(txHash chain.Hash, timeout time.Duration) (*Receipt, error) {
	deadline := time.Now().Add(timeout)
	hashHex := hex.EncodeToString(txHash[:])
	var lastErr error = ErrReceiptTimeout
	for time.Now().Before(deadline) {
		remaining := time.Until(deadline)
		wait := c.cfg.ReceiptWait
		if wait > remaining {
			wait = remaining
		}
		base := c.nextGateway()
		url := fmt.Sprintf("%s/v1/receipt/%s?proof=1&wait=%d", base, hashHex, wait.Milliseconds())
		var resp gateway.ReceiptResponse
		if err := c.getJSONTimeout(url, &resp, c.cfg.HTTPTimeout+wait); err != nil {
			lastErr = err
			continue // gateway died or shed — fail over
		}
		if !resp.Found {
			continue // drain handoff or long-poll expiry: re-poll elsewhere
		}
		tx, err := gateway.VerifyProof(resp.Proof)
		if err != nil {
			lastErr = fmt.Errorf("gwclient: gateway %s served a bad proof: %w", base, err)
			continue
		}
		if tx.Hash() != txHash {
			lastErr = fmt.Errorf("gwclient: gateway %s proved the wrong transaction", base)
			continue
		}
		witnesses, err := c.headerQuorum(resp.Proof.Height, resp.Proof.Header, deadline)
		if err != nil {
			lastErr = err
			continue
		}
		return &Receipt{
			Raw:     resp.Receipt,
			Height:  resp.Proof.Height,
			Header:  resp.Proof.Header,
			Witness: witnesses,
		}, nil
	}
	return nil, lastErr
}

// headerQuorum collects /v1/header answers from every configured gateway and
// counts agreement with the proof's header. Lagging nodes are re-polled
// until the deadline; disagreement is counted immediately.
func (c *Client) headerQuorum(height uint64, header []byte, deadline time.Time) (int, error) {
	pending := make(map[string]bool, len(c.cfg.Gateways))
	for _, g := range c.cfg.Gateways {
		pending[g] = true
	}
	agree := 0
	for len(pending) > 0 {
		for g := range pending {
			var resp gateway.HeaderResponse
			if err := c.getJSON(fmt.Sprintf("%s/v1/header/%d", g, height), &resp); err != nil {
				continue // unreachable or not yet at this height; retry below
			}
			delete(pending, g)
			if bytes.Equal(resp.Header, header) {
				agree++
				if agree >= c.cfg.Quorum {
					return agree, nil
				}
			}
		}
		if len(pending) == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if agree >= c.cfg.Quorum {
		return agree, nil
	}
	return agree, fmt.Errorf("%w: %d of %d needed at height %d", ErrNoQuorum, agree, c.cfg.Quorum, height)
}

// OpenReceipt decrypts a sealed confidential receipt with k_tx.
func OpenReceipt(sealed []byte, ktx []byte, txHash chain.Hash) (*chain.Receipt, error) {
	return core.OpenReceipt(sealed, ktx, txHash)
}

// ErrBadDisclosure reports a disclosure receipt that failed offline
// verification or does not match what was requested.
var ErrBadDisclosure = errors.New("gwclient: invalid disclosure receipt")

// RequestDisclosure asks a gateway's serving engine for a selective-
// disclosure receipt and verifies it offline before returning it: the
// sk_tx signature must check out against the attested pk_tx from the key
// exchange, and the receipt must state exactly what was requested — an
// untrusted edge cannot substitute a different (validly signed) statement.
// Returns the receipt and its hash (the handle GET /v1/disclosure/{hash}
// serves).
//
// The request is authenticated automatically: the client stamps a recent
// chain height, signs the canonical statement bytes with its transaction
// key, and — for kind "open" — names itself as the verifier, since the
// enclave only releases full openings to the authenticated requester. The
// target contract's authorize rule must have granted this client's address.
func (c *Client) RequestDisclosure(req gateway.DisclosureRequestBody) (*core.DisclosureReceipt, []byte, error) {
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return nil, nil, err
	}
	if kind == core.KindOpen && len(req.Verifier) == 0 {
		a := c.Address()
		req.Verifier = a[:]
	}
	var height uint64
	var healthErr error = ErrNoGateway
	for range c.cfg.Gateways {
		h, err := c.Health(c.nextGateway())
		if err != nil {
			healthErr = err
			continue
		}
		height, healthErr = h.Height, nil
		break
	}
	if healthErr != nil {
		return nil, nil, fmt.Errorf("gwclient: cannot stamp a fresh height: %w", healthErr)
	}
	var contract chain.Address
	if len(req.Contract) != len(contract) {
		return nil, nil, fmt.Errorf("gwclient: contract must be a %d-byte address", len(contract))
	}
	copy(contract[:], req.Contract)
	creq := core.DisclosureRequest{
		Contract:  contract,
		Key:       req.Key,
		Kind:      kind,
		Threshold: req.Threshold,
		Lo:        req.Lo,
		Hi:        req.Hi,
		Verifier:  req.Verifier,
		SigHeight: height,
	}
	c.mu.Lock()
	err = c.core.SignDisclosure(&creq)
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	req.RequesterPub, req.SigHeight, req.Sig = creq.RequesterPub, creq.SigHeight, creq.Sig

	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	var lastErr error = ErrNoGateway
	for range c.cfg.Gateways {
		base := c.nextGateway()
		var resp gateway.DisclosureResponse
		if err := c.postJSON(base+"/v1/disclosure/request", body, &resp); err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				switch apiErr.Code {
				case gateway.CodeUnsatisfied, gateway.CodeNotFound, gateway.CodeBadRequest, gateway.CodeDenied:
					return nil, nil, err // deterministic — no other gateway will differ
				}
			}
			lastErr = err
			continue
		}
		rcpt, err := c.verifyDisclosure(resp.Receipt)
		if err != nil {
			lastErr = err
			continue
		}
		if err := matchDisclosure(rcpt, req); err != nil {
			lastErr = err
			continue
		}
		h := rcpt.Hash()
		return rcpt, h[:], nil
	}
	return nil, nil, lastErr
}

// FetchDisclosure retrieves a previously-issued receipt by hash and
// verifies it offline — the auditor path: given only a receipt hash and
// the attested pk_tx, no gateway needs to be trusted.
func (c *Client) FetchDisclosure(hash []byte) (*core.DisclosureReceipt, error) {
	var lastErr error = ErrNoGateway
	for range c.cfg.Gateways {
		base := c.nextGateway()
		var resp gateway.DisclosureResponse
		if err := c.getJSON(base+"/v1/disclosure/"+hex.EncodeToString(hash), &resp); err != nil {
			lastErr = err
			continue
		}
		if !resp.Found {
			lastErr = fmt.Errorf("%w: receipt not held by %s", ErrBadDisclosure, base)
			continue
		}
		rcpt, err := c.verifyDisclosure(resp.Receipt)
		if err != nil {
			lastErr = err
			continue
		}
		h := rcpt.Hash()
		if !bytes.Equal(h[:], hash) {
			lastErr = fmt.Errorf("%w: gateway %s served a different receipt", ErrBadDisclosure, base)
			continue
		}
		return rcpt, nil
	}
	return nil, lastErr
}

// verifyDisclosure decodes and fully verifies one wire receipt offline.
func (c *Client) verifyDisclosure(enc []byte) (*core.DisclosureReceipt, error) {
	rcpt, err := core.DecodeDisclosureReceipt(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDisclosure, err)
	}
	c.mu.Lock()
	pkTx := c.core.EnvelopePublicKey()
	c.mu.Unlock()
	if pkTx == nil {
		return nil, errors.New("gwclient: no attested pk_tx; Dial with a Verifier first")
	}
	if err := rcpt.Verify(pkTx); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDisclosure, err)
	}
	return rcpt, nil
}

// matchDisclosure checks that a verified receipt states what was asked.
func matchDisclosure(r *core.DisclosureReceipt, req gateway.DisclosureRequestBody) error {
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return err
	}
	switch {
	case r.Kind != kind,
		!bytes.Equal(r.Contract[:], req.Contract),
		!bytes.Equal(r.Key, req.Key),
		!bytes.Equal(r.Verifier, req.Verifier),
		kind == core.KindThreshold && r.Threshold != req.Threshold,
		kind == core.KindInterval && (r.Lo != req.Lo || r.Hi != req.Hi):
		return fmt.Errorf("%w: receipt does not match the request", ErrBadDisclosure)
	}
	return nil
}

// Health fetches one gateway's health summary.
func (c *Client) Health(base string) (*gateway.HealthResponse, error) {
	var resp gateway.HealthResponse
	if err := c.getJSON(base+"/v1/health", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- HTTP plumbing ---

func (c *Client) getJSON(url string, out any) error {
	return c.getJSONTimeout(url, out, c.cfg.HTTPTimeout)
}

func (c *Client) getJSONTimeout(url string, out any, timeout time.Duration) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return c.do(req, out, timeout)
}

func (c *Client) postJSON(url string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out, c.cfg.HTTPTimeout)
}

func (c *Client) do(req *http.Request, out any, timeout time.Duration) error {
	req.Header.Set("X-Confide-Client", c.cfg.ClientID)
	cl := c.http
	if timeout != c.cfg.HTTPTimeout {
		cl = &http.Client{Timeout: timeout, Transport: c.http.Transport}
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb gateway.ErrorBody
		apiErr := &APIError{Status: resp.StatusCode, Code: "http_error", Detail: string(data)}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			apiErr.Code = eb.Error
			apiErr.Detail = eb.Detail
			apiErr.RetryAfter = time.Duration(eb.RetryAfterMs) * time.Millisecond
			apiErr.Epoch = eb.Epoch
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
