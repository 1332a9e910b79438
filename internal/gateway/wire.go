// Package gateway is the platform's attested network edge: an HTTP/JSON
// serving layer hosted by every node that remote clients reach over real
// TCP, plus (in the gwclient subpackage) the matching Go SDK.
//
// The paper's deployment shape (§3.3, §4) puts clients outside the
// consortium: they verify the engine's remote-attestation report before
// trusting pk_tx, seal their business actions into digital envelopes that
// only the enclave can open, and consensus-read their receipts (SPV proof +
// header quorum) because no single node is trusted for queries. The gateway
// is deliberately *untrusted host code*: everything it proxies is either
// public by construction (wire envelopes, sealed receipts, headers, Merkle
// paths) or attested past it (the report is signed by the manufacturer
// root, which the gateway cannot forge).
//
// The server side fronts the node with admission control — per-client
// token-bucket rate limits, a pool-depth overload gate, an in-flight request
// cap, load shedding with Retry-After, and graceful connection drain — so a
// node under a traffic storm degrades with explicit rejections instead of
// collapsing.
package gateway

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"confide/internal/chain"
)

// Machine-readable error codes carried in ErrorBody.Error. The SDK switches
// on these; human detail rides separately.
const (
	CodeBadRequest  = "bad_request"  // malformed JSON / fields
	CodeTxTooLarge  = "tx_too_large" // wire encoding exceeds the submission bound
	CodeRateLimited = "rate_limited" // per-client token bucket empty
	CodeOverloaded  = "overloaded"   // pool depth or in-flight cap exceeded
	CodeDraining    = "draining"     // gateway is shutting down gracefully
	CodeStaleEpoch  = "stale_epoch"  // envelope sealed to an epoch outside the acceptance window
	CodeNotFound    = "not_found"    // unknown transaction / height
	CodeRejected    = "rejected"     // node refused the transaction (pool full, …)
	CodeDenied      = "denied"       // the contract's authorize rule refused the requester
)

// ErrorBody is the JSON error envelope on every non-2xx response.
type ErrorBody struct {
	Error        string `json:"error"`
	Detail       string `json:"detail,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	// Epoch is the serving engine's current key epoch, set on stale_epoch
	// rejections so the client knows what to refresh to.
	Epoch uint64 `json:"epoch,omitempty"`
}

// AttestationResponse is GET /v1/attestation: the engine's remote
// attestation report (manufacturer-signed, pk_tx fingerprint locked in the
// report data) plus the current envelope key material and epoch. Everything
// here is safe to serve from untrusted host code — the client verifies the
// signature chain, not the messenger.
type AttestationResponse struct {
	Measurement []byte `json:"measurement"` // 32-byte enclave measurement
	ReportData  []byte `json:"report_data"` // 64 bytes; [:32] is SHA-256(pk_tx)
	Signature   []byte `json:"signature"`   // manufacturer-root ECDSA over the report
	Epoch       uint64 `json:"epoch"`       // key epoch pk_tx belongs to
	PkTx        []byte `json:"pk_tx"`       // envelope public key (SEC1)
	EpochWindow uint64 `json:"epoch_window"`
	NodeID      uint32 `json:"node_id"`
	Height      uint64 `json:"height"`
}

// SubmitRequest is POST /v1/submit: one wire-encoded transaction.
type SubmitRequest struct {
	Tx []byte `json:"tx"`
}

// Submission statuses.
const (
	StatusAccepted  = "accepted"  // entered this node's unverified pool
	StatusDuplicate = "duplicate" // already pooled or in flight (idempotent retry)
	StatusCommitted = "committed" // already executed in a committed block
	StatusRejected  = "rejected"  // refused; Error carries the code
)

// SubmitResult is one transaction's submission outcome.
type SubmitResult struct {
	TxHash []byte `json:"tx_hash"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchSubmitRequest is POST /v1/submit/batch.
type BatchSubmitRequest struct {
	Txs [][]byte `json:"txs"`
}

// BatchSubmitResponse mirrors the request order.
type BatchSubmitResponse struct {
	Results []SubmitResult `json:"results"`
}

// ProofStep is one Merkle-path sibling, wire form of chain.MerkleProofStep.
type ProofStep struct {
	Sibling []byte `json:"sibling"` // 32 bytes
	Right   bool   `json:"right"`
}

// Proof is the SPV inclusion proof for one transaction: the canonical header
// bytes of the containing block (the identity a header quorum vouches for),
// the full wire transaction, and the Merkle path to the header's TxRoot.
type Proof struct {
	Header []byte      `json:"header"`
	Height uint64      `json:"height"`
	Tx     []byte      `json:"tx"`
	Index  int         `json:"index"`
	Path   []ProofStep `json:"path"`
}

// ReceiptResponse is GET /v1/receipt/{hash}: the stored receipt bytes
// (sealed under k_tx for confidential transactions — the gateway serves the
// untrusted-database view) plus, when ?proof=1, the SPV proof.
type ReceiptResponse struct {
	Found   bool   `json:"found"`
	Height  uint64 `json:"height,omitempty"`
	Receipt []byte `json:"receipt,omitempty"`
	Proof   *Proof `json:"proof,omitempty"`
	// Draining reports that the gateway gave up the long-poll because it is
	// shutting down; the client should re-poll another gateway.
	Draining bool `json:"draining,omitempty"`
}

// HeaderResponse is GET /v1/header/{height}: the canonical header bytes one
// witness reports during a consensus read.
type HeaderResponse struct {
	Height uint64 `json:"height"`
	Header []byte `json:"header"`
}

// HealthResponse is GET /v1/health.
type HealthResponse struct {
	NodeID   uint32 `json:"node_id"`
	Height   uint64 `json:"height"`
	Epoch    uint64 `json:"epoch"`
	Draining bool   `json:"draining"`
	InFlight int64  `json:"in_flight"`
	PoolLen  int    `json:"pool_len"`
}

// ErrBadRequest wraps request decode failures.
var ErrBadRequest = errors.New("gateway: malformed request")

// ErrTooLarge reports a transaction exceeding the submission size bound —
// the same boundary node.SubmitTx enforces, applied before the bytes are
// even decoded.
var ErrTooLarge = errors.New("gateway: transaction exceeds wire size limit")

// decodeSubmit parses a single-submit body into a wire transaction,
// enforcing the size bound pre-decode.
func decodeSubmit(body []byte, maxTxBytes int) (*chain.Tx, error) {
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return decodeWireTx(req.Tx, maxTxBytes)
}

// decodeBatch parses a batch-submit body, bounding both the per-transaction
// size and the batch length. Order is preserved.
func decodeBatch(body []byte, maxTxs, maxTxBytes int) ([]*chain.Tx, error) {
	var req BatchSubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Txs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if maxTxs > 0 && len(req.Txs) > maxTxs {
		return nil, fmt.Errorf("%w: batch of %d exceeds limit %d", ErrBadRequest, len(req.Txs), maxTxs)
	}
	txs := make([]*chain.Tx, len(req.Txs))
	for i, raw := range req.Txs {
		tx, err := decodeWireTx(raw, maxTxBytes)
		if err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		txs[i] = tx
	}
	return txs, nil
}

func decodeWireTx(raw []byte, maxTxBytes int) (*chain.Tx, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty transaction", ErrBadRequest)
	}
	if maxTxBytes > 0 && len(raw) > maxTxBytes {
		return nil, ErrTooLarge
	}
	tx, err := chain.DecodeTx(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return tx, nil
}

// parseTxHash parses a 0x-optional hex transaction hash path segment.
func parseTxHash(s string) (chain.Hash, error) {
	var h chain.Hash
	s = strings.TrimPrefix(s, "0x")
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return h, fmt.Errorf("%w: bad transaction hash", ErrBadRequest)
	}
	copy(h[:], raw)
	return h, nil
}

// VerifyProof checks a wire proof's internal consistency — the transaction
// decodes, hashes to the proven leaf, and the Merkle path lands on the
// header's TxRoot — and returns the decoded transaction. It does NOT
// establish that the header is canonical; that is the header quorum's job
// (the client collects HeaderAt from independent gateways and counts
// agreement). It is node.VerifyTxProof over wire types, so the SDK never
// needs the node package; both read the header through chain.DecodeHeader.
func VerifyProof(p *Proof) (*chain.Tx, error) {
	if p == nil {
		return nil, ErrBadProof
	}
	tx, err := chain.DecodeTx(p.Tx)
	if err != nil {
		return nil, ErrBadProof
	}
	hdr, err := chain.DecodeHeader(p.Header)
	if err != nil || hdr.Height != p.Height {
		return nil, ErrBadProof
	}
	path := make([]chain.MerkleProofStep, len(p.Path))
	for i, s := range p.Path {
		if len(s.Sibling) != 32 {
			return nil, ErrBadProof
		}
		copy(path[i].Sibling[:], s.Sibling)
		path[i].Right = s.Right
	}
	if !chain.VerifyMerkleProof(hdr.TxRoot, tx.Hash(), path) {
		return nil, ErrBadProof
	}
	return tx, nil
}

// ErrBadProof reports an SPV proof that fails local verification.
var ErrBadProof = errors.New("gateway: invalid inclusion proof")
