package gateway

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
)

// CodeUnsatisfied reports that the enclave refused to sign the requested
// statement — the cell's value does not satisfy it. The refusal is
// deliberately value-free.
const CodeUnsatisfied = "unsatisfied"

// DisclosureRequestBody is POST /v1/disclosure/request: ask the serving
// engine for a selective-disclosure receipt over one 8-byte state cell.
// Requests carry the requester's own signature over the canonical statement
// bytes; the gateway is untrusted transport and forwards it verbatim — the
// enclave verifies the signature and asks the target contract's authorize
// rule whether this requester may see this statement.
type DisclosureRequestBody struct {
	Contract  []byte `json:"contract"` // 20-byte contract address
	Key       []byte `json:"key"`      // state key of the cell
	Kind      string `json:"kind"`     // open | threshold | interval
	Threshold uint64 `json:"threshold,omitempty"`
	Lo        uint64 `json:"lo,omitempty"`
	Hi        uint64 `json:"hi,omitempty"`
	Verifier  []byte `json:"verifier,omitempty"` // named-verifier tag; for "open", the requester itself

	RequesterPub []byte `json:"requester_pub"`        // requester verification key (PKIX)
	SigHeight    uint64 `json:"sig_height,omitempty"` // chain height stamped into the signature
	Sig          []byte `json:"sig"`                  // ECDSA over the canonical statement bytes
}

// DisclosureResponse carries one enclave-signed receipt. The gateway is
// untrusted transport: the receipt is self-contained and the client
// verifies the sk_tx signature offline against the attested pk_tx.
type DisclosureResponse struct {
	Found   bool   `json:"found"`
	Hash    []byte `json:"hash,omitempty"` // SHA-256 of the receipt encoding
	Receipt []byte `json:"receipt,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`  // key epoch that signed
	Height  uint64 `json:"height,omitempty"` // chain height the cell was read at
}

var (
	mDisclosureIssued = metrics.Default().Counter("confide_gateway_disclosure_receipts_total",
		"selective-disclosure receipts issued by the serving engine")
	mDisclosureRefused = metrics.Default().Counter("confide_gateway_disclosure_refusals_total",
		"disclosure requests the enclave refused (unknown cell or unsatisfied predicate)")
	mDisclosureGenSeconds = metrics.Default().Histogram("confide_gateway_disclosure_gen_seconds",
		"disclosure receipt latency inside the serving engine: request checks, authorize rule, cell read and sk_tx signature",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
)

// disclosureCache is a bounded FIFO index of issued receipts by hash, so
// auditors who were handed a receipt hash out of band can fetch the bytes
// from any gateway that issued them.
type disclosureCache struct {
	mu    sync.Mutex
	bykey map[[32]byte][]byte
	order [][32]byte
}

// disclosureIndexCap bounds the issued-receipt index GET /v1/disclosure/{hash}
// serves from.
const disclosureIndexCap = 1024

func newDisclosureCache() *disclosureCache {
	return &disclosureCache{bykey: make(map[[32]byte][]byte)}
}

func (c *disclosureCache) put(h [32]byte, enc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bykey[h]; ok {
		return
	}
	for len(c.order) >= disclosureIndexCap {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.bykey, old)
	}
	c.bykey[h] = enc
	c.order = append(c.order, h)
}

func (c *disclosureCache) get(h [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, ok := c.bykey[h]
	return enc, ok
}

// disclosureCost prices a disclosure request in admission-limiter tokens:
// two signature checks, a rule execution and a signature inside an Ecall,
// the same for every kind.
const disclosureCost = 2

func (g *Gateway) handleDisclosureRequest(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
		return
	}
	var req DisclosureRequestBody
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: "malformed disclosure request"})
		return
	}
	var contract chain.Address
	if len(req.Contract) != len(contract) {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: "contract must be a 20-byte address"})
		return
	}
	copy(contract[:], req.Contract)
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
		return
	}
	if !g.admit(w, r, disclosureCost) {
		return
	}

	start := time.Now()
	rcpt, err := g.node.ConfidentialEngine().DisclosureReceipt(core.DisclosureRequest{
		Contract:     contract,
		Key:          req.Key,
		Kind:         kind,
		Threshold:    req.Threshold,
		Lo:           req.Lo,
		Hi:           req.Hi,
		Verifier:     req.Verifier,
		Height:       g.node.Height(),
		RequesterPub: req.RequesterPub,
		SigHeight:    req.SigHeight,
		Sig:          req.Sig,
	})
	switch {
	case errors.Is(err, core.ErrDisclosureDenied):
		mDisclosureRefused.Inc()
		writeError(w, http.StatusForbidden, ErrorBody{Error: CodeDenied, Detail: "the contract's authorize rule refused the requester"})
		return
	case errors.Is(err, core.ErrNoDisclosureCell):
		mDisclosureRefused.Inc()
		writeError(w, http.StatusNotFound, ErrorBody{Error: CodeNotFound, Detail: "no value at that key"})
		return
	case errors.Is(err, core.ErrDisclosureUnsatisfied):
		mDisclosureRefused.Inc()
		writeError(w, http.StatusConflict, ErrorBody{Error: CodeUnsatisfied, Detail: "the enclave refuses to sign that statement"})
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: err.Error()})
		return
	}
	mDisclosureGenSeconds.Observe(time.Since(start).Seconds())
	mDisclosureIssued.Inc()

	enc := rcpt.Encode()
	h := rcpt.Hash()
	g.disclosures.put(h, enc)
	writeJSON(w, http.StatusOK, DisclosureResponse{
		Found:   true,
		Hash:    h[:],
		Receipt: enc,
		Epoch:   rcpt.Epoch,
		Height:  rcpt.Height,
	})
}

func (g *Gateway) handleDisclosureGet(w http.ResponseWriter, r *http.Request) {
	if !g.admit(w, r, 1) {
		return
	}
	raw, err := hex.DecodeString(r.PathValue("hash"))
	if err != nil || len(raw) != 32 {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: CodeBadRequest, Detail: "bad receipt hash"})
		return
	}
	var h [32]byte
	copy(h[:], raw)
	enc, ok := g.disclosures.get(h)
	if !ok {
		writeJSON(w, http.StatusOK, DisclosureResponse{Found: false})
		return
	}
	writeJSON(w, http.StatusOK, DisclosureResponse{Found: true, Hash: h[:], Receipt: enc})
}
