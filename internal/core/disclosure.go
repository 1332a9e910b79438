package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/tee"
)

// Selective disclosure: the enclave opens one sealed 8-byte cell, evaluates
// a statement about its big-endian uint64 on the plaintext, and signs the
// statement with the current epoch's sk_tx — the key whose fingerprint the
// attestation report vouches for. A third party verifies a receipt offline
// against the attested pk_tx; the value itself leaves the enclave only in an
// open receipt, and only to the authenticated requester.

// Kind selects what a disclosure receipt states about a cell's value v.
type Kind uint8

const (
	// KindOpen reveals v to the requester, who must be the named verifier.
	KindOpen Kind = 1
	// KindThreshold states v ≥ Threshold.
	KindThreshold Kind = 2
	// KindInterval states Lo ≤ v ≤ Hi.
	KindInterval Kind = 3
)

var kindNames = map[Kind]string{KindOpen: "open", KindThreshold: "threshold", KindInterval: "interval"}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps the wire names used by the gateway API to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown disclosure kind %q", s)
}

// Domain tags that open the signed RLP lists, so a request signature or a
// receipt signature can never be replayed as any other signed message.
const (
	disclosureRequestTag = "confide/disclosure-request/v2"
	disclosureReceiptTag = "confide/disclosure-receipt/v2"
)

// DisclosureRequest asks the engine for a selective-disclosure receipt over
// one state cell. Requests are authenticated: the requester signs the
// canonical statement bytes with its transaction-signing key, and the enclave
// consults the target contract's authorize rule (the same well-known method
// receipt access uses) with the requester's derived address before it reads
// the cell.
type DisclosureRequest struct {
	Contract  chain.Address
	Key       []byte // state key of the cell
	Kind      Kind   // what to state
	Threshold uint64 // KindThreshold
	Lo, Hi    uint64 // KindInterval
	Verifier  []byte // named-verifier tag; for KindOpen, must be the requester
	Height    uint64 // chain height, stamped by the node

	// RequesterPub is the requester's verification key (PKIX, as in
	// chain.RawTx.SenderPub); the on-chain requester address is derived
	// from it exactly as for transactions.
	RequesterPub []byte
	// SigHeight is the chain height the requester stamped into the
	// signature; the enclave bounds |Height − SigHeight| to refuse stale
	// captured requests.
	SigHeight uint64
	// Sig is the requester's ECDSA signature over SigningBytes.
	Sig []byte
}

// SigningBytes is the canonical encoding the requester signs: every field
// that selects what is disclosed and to whom. Its SHA-256 is the digest the
// contract's authorize rule decides on, so a grant approves exactly one
// statement, not blanket access.
func (req *DisclosureRequest) SigningBytes() []byte {
	return chain.Encode(chain.List(
		chain.String(disclosureRequestTag),
		chain.Uint(uint64(req.Kind)),
		chain.Bytes(req.Contract[:]),
		chain.Bytes(req.Key),
		chain.Uint(req.Threshold),
		chain.Uint(req.Lo),
		chain.Uint(req.Hi),
		chain.Bytes(req.Verifier),
		chain.Bytes(req.RequesterPub),
		chain.Uint(req.SigHeight),
	))
}

// DisclosureReceipt is an enclave-signed statement about one state cell.
type DisclosureReceipt struct {
	Kind      Kind
	Contract  chain.Address
	Key       []byte
	Height    uint64 // chain height the cell was read at
	Epoch     uint64 // key epoch whose sk_tx signed the receipt
	Verifier  []byte // named-verifier tag, bound by the signature
	Threshold uint64 // KindThreshold
	Lo, Hi    uint64 // KindInterval
	Value     uint64 // KindOpen only
	Sig       []byte // ECDSA (ASN.1) over SHA-256 of SigningBytes, by epoch sk_tx
}

// receiptFields is the receipt minus its signature, in wire order.
func (r *DisclosureReceipt) receiptFields() []chain.Item {
	return []chain.Item{
		chain.Uint(uint64(r.Kind)),
		chain.Bytes(r.Contract[:]),
		chain.Bytes(r.Key),
		chain.Uint(r.Height),
		chain.Uint(r.Epoch),
		chain.Bytes(r.Verifier),
		chain.Uint(r.Threshold),
		chain.Uint(r.Lo),
		chain.Uint(r.Hi),
		chain.Uint(r.Value),
	}
}

// SigningBytes is what the enclave signs: the domain tag, then every field
// but the signature.
func (r *DisclosureReceipt) SigningBytes() []byte {
	return chain.Encode(chain.List(append([]chain.Item{chain.String(disclosureReceiptTag)}, r.receiptFields()...)...))
}

// Encode serializes the receipt, signature last.
func (r *DisclosureReceipt) Encode() []byte {
	return chain.Encode(chain.List(append(r.receiptFields(), chain.Bytes(r.Sig))...))
}

// Hash is the receipt's content address, the GET /v1/disclosure lookup key.
func (r *DisclosureReceipt) Hash() [32]byte {
	return sha256.Sum256(r.Encode())
}

// ErrBadDisclosureReceipt is returned for a malformed receipt or one whose
// signature does not verify.
var ErrBadDisclosureReceipt = errors.New("core: disclosure receipt rejected")

// DecodeDisclosureReceipt parses a serialized receipt. Any structural defect
// yields ErrBadDisclosureReceipt, never a panic; what decodes re-encodes to
// the same bytes.
func DecodeDisclosureReceipt(data []byte) (*DisclosureReceipt, error) {
	it, err := chain.Decode(data)
	if err != nil || !it.IsList || len(it.List) != 11 {
		return nil, ErrBadDisclosureReceipt
	}
	r := &DisclosureReceipt{Key: it.List[2].Str, Verifier: it.List[5].Str, Sig: it.List[10].Str}
	var kind uint64
	uints := [11]*uint64{0: &kind, 3: &r.Height, 4: &r.Epoch, 6: &r.Threshold, 7: &r.Lo, 8: &r.Hi, 9: &r.Value}
	for i, f := range it.List {
		switch {
		case uints[i] != nil:
			*uints[i], err = f.AsUint()
		case f.IsList:
			err = ErrBadDisclosureReceipt
		}
		if err != nil {
			return nil, ErrBadDisclosureReceipt
		}
	}
	r.Kind = Kind(kind)
	if _, ok := kindNames[r.Kind]; !ok || kind > 0xff || len(it.List[1].Str) != len(r.Contract) || len(r.Sig) == 0 {
		return nil, ErrBadDisclosureReceipt
	}
	copy(r.Contract[:], it.List[1].Str)
	return r, nil
}

// Verify checks the receipt's signature against the attested pk_tx
// (uncompressed SEC1, as served by the attestation endpoint), fully offline.
func (r *DisclosureReceipt) Verify(pkTx []byte) error {
	if err := crypto.VerifyP256(pkTx, r.SigningBytes(), r.Sig); err != nil {
		return fmt.Errorf("%w: bad signature", ErrBadDisclosureReceipt)
	}
	return nil
}

// disclosureSigWindow bounds how many blocks a signed disclosure request
// stays acceptable around its SigHeight. Within the window a captured
// request can be replayed, but a replay can only re-issue a receipt for the
// identical statement the owner already authorized.
const disclosureSigWindow = 128

var (
	// ErrDisclosureDenied is returned when the target contract's authorize
	// rule refuses the requester.
	ErrDisclosureDenied = errors.New("core: disclosure: contract denied the requester")
	// ErrNoDisclosureCell is returned when the requested state key holds no
	// value.
	ErrNoDisclosureCell = errors.New("core: disclosure: no such state cell")
	// ErrDisclosureNotUint64 is returned when the cell is not exactly 8
	// bytes; the error carries neither the value nor its length.
	ErrDisclosureNotUint64 = errors.New("core: disclosure: cell is not an 8-byte big-endian value")
	// ErrDisclosureUnsatisfied is returned when the value does not satisfy
	// the statement (v < threshold, or v outside [lo, hi]). The enclave
	// refuses rather than sign a false statement, and the error does not
	// reveal the value.
	ErrDisclosureUnsatisfied = errors.New("core: disclosure: statement not satisfied")
)

// DisclosureReceipt opens the cell inside the enclave, evaluates the
// requested statement on its value and signs it with the current epoch's
// sk_tx.
//
// Before the cell is touched the request passes, in order: the requester's
// signature over the canonical statement bytes verifies; the signature's
// height stamp is fresh; the contract is confidential; the contract's
// authorize rule — a read-only execution with the requester as caller,
// exactly as for receipt access — approves the statement digest; and an
// open receipt names the authenticated requester as its verifier, so a
// value is only ever released to the party the contract approved.
func (e *Engine) DisclosureReceipt(req DisclosureRequest) (*DisclosureReceipt, error) {
	if e.ring == nil || e.enclave == nil {
		return nil, errors.New("core: disclosure requires the confidential engine")
	}
	if len(req.Key) == 0 || len(req.Key) > 256 || len(req.Verifier) > 256 {
		return nil, errors.New("core: disclosure: bad key or verifier")
	}
	if len(req.RequesterPub) == 0 || len(req.Sig) == 0 {
		return nil, errors.New("core: disclosure: request is not signed")
	}
	var receipt *DisclosureReceipt
	err := e.enclave.Ecall(len(req.Key)+len(req.Verifier)+len(req.RequesterPub)+len(req.Sig), tee.CopyInOut, func() error {
		signing := req.SigningBytes()
		if err := crypto.Verify(req.RequesterPub, signing, req.Sig); err != nil {
			return fmt.Errorf("core: disclosure: bad request signature: %w", err)
		}
		if req.Height > req.SigHeight+disclosureSigWindow || req.SigHeight > req.Height+disclosureSigWindow {
			return fmt.Errorf("core: disclosure: signature height %d outside freshness window at height %d",
				req.SigHeight, req.Height)
		}
		h := crypto.Keccak256(req.RequesterPub)
		requester := chain.AddressFromBytes(h[:])

		rec, _, err := e.sdm.loadContract(req.Contract)
		if err != nil {
			return err
		}
		if !rec.Confidential {
			return errors.New("core: disclosure: contract is not confidential")
		}
		digest := sha256.Sum256(signing)
		ok, err := e.authorize(req.Contract, requester, digest[:])
		if err != nil {
			return fmt.Errorf("core: disclosure rule: %w", err)
		}
		if !ok {
			return ErrDisclosureDenied
		}
		if req.Kind == KindOpen && !bytes.Equal(req.Verifier, requester[:]) {
			return errors.New("core: disclosure: open receipts must name the authenticated requester as verifier")
		}

		raw, found, err := e.sdm.load(stateKey(req.Contract, req.Key), true)
		if err != nil {
			return err
		}
		if !found {
			return ErrNoDisclosureCell
		}
		if len(raw) != 8 {
			return ErrDisclosureNotUint64
		}
		v := binary.BigEndian.Uint64(raw)
		epoch := e.ring.Current()
		receipt = &DisclosureReceipt{
			Kind:     req.Kind,
			Contract: req.Contract,
			Key:      append([]byte(nil), req.Key...),
			Height:   req.Height,
			Epoch:    epoch,
			Verifier: append([]byte(nil), req.Verifier...),
		}
		switch req.Kind {
		case KindOpen:
			receipt.Value = v
		case KindThreshold:
			if v < req.Threshold {
				return ErrDisclosureUnsatisfied
			}
			receipt.Threshold = req.Threshold
		case KindInterval:
			if req.Lo > req.Hi || v < req.Lo || v > req.Hi {
				return ErrDisclosureUnsatisfied
			}
			receipt.Lo, receipt.Hi = req.Lo, req.Hi
		default:
			return fmt.Errorf("core: disclosure: unknown kind %d", req.Kind)
		}
		sk, err := e.ring.Envelope(epoch)
		if err != nil {
			return err
		}
		receipt.Sig, err = sk.SignData(receipt.SigningBytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	return receipt, nil
}
