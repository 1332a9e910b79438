package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"time"

	"confide/internal/chain"
	"confide/internal/confassets"
	"confide/internal/crypto"
	"confide/internal/metrics"
	"confide/internal/tee"
)

// The confidential-assets host interface. Contracts reach it through the
// HostConfAssets VM call with an op-coded request; the engine performs the
// group arithmetic, derives blindings deterministically from k_states, and
// enforces conservation inside the apply path. Committed balances are
// stored as opaque 74-byte records in confidential contract state — the
// SDM seals them at rest like any other cell — with this layout:
//
//	[0xCA][33-byte commitment][8-byte value BE][32-byte blinding]
//
// The commitment half is what a cell discloses (receipts, the `committed`
// CCLe grade); the value/blinding half is the opening, which never leaves
// sealed state.
const (
	caRecordMagic = 0xCA
	caRecordSize  = 1 + confassets.PointSize + 8 + confassets.ScalarSize
	caLabelSize   = 8
)

// Host op codes for the ConfAssetsCall request byte.
const (
	caOpCommit     = 1 // [op][value 8][label 8] → record
	caOpTransfer   = 2 // [op][from rec][to rec][amount 8][fromLabel 8][toLabel 8] → from'||to'
	caOpVerify     = 3 // [op][commitment 33][range proof] → [1], or rejected
	caOpCommitment = 4 // [op][record] → commitment 33
	caOpSupplyAdd  = 5 // [op][record][delta 8][cap 8][label 8] → record
	caOpAddC       = 6 // [op][commitment 33][commitment 33] → commitment 33
)

var (
	mConfCommits = metrics.Default().Counter("confide_confassets_host_ops_total",
		"confidential-assets host operations, by op", metrics.L{K: "op", V: "commit"})
	mConfTransfers = metrics.Default().Counter("confide_confassets_host_ops_total",
		"confidential-assets host operations, by op", metrics.L{K: "op", V: "transfer"})
	mConfVerifies = metrics.Default().Counter("confide_confassets_host_ops_total",
		"confidential-assets host operations, by op", metrics.L{K: "op", V: "verify"})
	mConfRejects = metrics.Default().Counter("confide_confassets_rejects_total",
		"confidential-assets operations rejected in the apply path (bad proof, overflow, conservation)")
	mConfVerifySeconds = metrics.Default().Histogram("confide_confassets_verify_seconds",
		"in-engine range-proof verification latency", nil)
)

// errConfAssets wraps every deterministic confidential-assets failure; the
// VM surfaces it as a trap, so the transaction fails at the apply path on
// every replica identically.
func confErr(format string, args ...any) error {
	mConfRejects.Inc()
	return fmt.Errorf("confassets: "+format, args...)
}

// confAssetsBlindLabel scopes the blinding-derivation key under k_states.
const confAssetsBlindLabel = "confide/confassets-blinding"

// confAssetsBlindKey derives the blinding key from the current epoch's
// k_states. Epoch advances are consensus-ordered at fixed heights, so a
// replaying replica crosses rotations at the same transactions and derives
// identical blindings. Nil for the public engine.
func (e *Engine) confAssetsBlindKey() []byte {
	if e.ring == nil {
		return nil
	}
	_, k := e.ring.SealKey()
	return crypto.DeriveSubKey(k, confAssetsBlindLabel)
}

// nextBlinding mints the next deterministic blinding factor for this
// transaction: unique per (contract, tx, label, counter).
func (f *frameEnv) nextBlinding(blindKey []byte, label []byte) *big.Int {
	r := confassets.DeriveBlinding(blindKey, f.contract[:], f.tx.txHash[:], label, f.tx.caCounter)
	f.tx.caCounter++
	return r
}

// caRecord is the decoded committed-balance record.
type caRecord struct {
	c confassets.Commitment
	v uint64
	r *big.Int
}

func (rec *caRecord) encode() []byte {
	out := make([]byte, 0, caRecordSize)
	out = append(out, caRecordMagic)
	out = append(out, rec.c.Bytes()...)
	out = binary.BigEndian.AppendUint64(out, rec.v)
	return append(out, confassets.ScalarBytes(rec.r)...)
}

// decodeCARecord parses and re-authenticates a record: the commitment must
// recompute from the carried opening, so a contract cannot fabricate
// record bytes claiming a value it never committed.
func decodeCARecord(b []byte) (*caRecord, error) {
	if len(b) != caRecordSize || b[0] != caRecordMagic {
		return nil, errors.New("malformed committed-balance record")
	}
	c, err := confassets.DecodeCommitment(b[1 : 1+confassets.PointSize])
	if err != nil {
		return nil, err
	}
	v := binary.BigEndian.Uint64(b[1+confassets.PointSize : 1+confassets.PointSize+8])
	r, err := confassets.DecodeScalar(b[1+confassets.PointSize+8:])
	if err != nil {
		return nil, err
	}
	if !confassets.Commit(v, r).Equal(c) {
		return nil, errors.New("committed-balance record fails self-authentication")
	}
	return &caRecord{c: c, v: v, r: r}, nil
}

// ConfAssetsCall implements cvm.ConfAssetsEnv. Every branch is
// deterministic: outputs depend only on the request, the transaction hash
// and consensus-ordered key material.
func (f *frameEnv) ConfAssetsCall(in []byte) ([]byte, error) {
	e := f.tx.engine
	blindKey := e.confAssetsBlindKey()
	if blindKey == nil {
		return nil, errors.New("confassets: requires the confidential engine")
	}
	if len(in) == 0 {
		return nil, confErr("empty request")
	}
	switch in[0] {
	case caOpCommit:
		if len(in) != 1+8+caLabelSize {
			return nil, confErr("commit: bad request length %d", len(in))
		}
		mConfCommits.Inc()
		v := binary.BigEndian.Uint64(in[1:9])
		r := f.nextBlinding(blindKey, in[9:])
		rec := &caRecord{c: confassets.Commit(v, r), v: v, r: r}
		return rec.encode(), nil

	case caOpTransfer:
		if len(in) != 1+2*caRecordSize+8+2*caLabelSize {
			return nil, confErr("transfer: bad request length %d", len(in))
		}
		mConfTransfers.Inc()
		off := 1
		from, err := decodeCARecord(in[off : off+caRecordSize])
		if err != nil {
			return nil, confErr("transfer: from: %v", err)
		}
		off += caRecordSize
		to, err := decodeCARecord(in[off : off+caRecordSize])
		if err != nil {
			return nil, confErr("transfer: to: %v", err)
		}
		off += caRecordSize
		amount := binary.BigEndian.Uint64(in[off : off+8])
		fromLabel := in[off+8 : off+8+caLabelSize]
		toLabel := in[off+8+caLabelSize:]
		if amount > from.v {
			return nil, confErr("transfer: insufficient committed balance")
		}
		if to.v+amount < to.v {
			return nil, confErr("transfer: recipient balance overflow")
		}
		// Conservation is enforced arithmetically: both input records were
		// re-authenticated against their commitments (decodeCARecord), and
		// the balance/overflow checks above guarantee
		// from.v + to.v == newFrom.v + newTo.v over uint64, so the
		// homomorphic difference sum(inputs) − sum(outputs) is a commitment
		// to zero by construction. No zero-proof is generated here: this
		// host derives both the outputs and their blindings itself, so a
		// proof it verified against its own material could never fail and
		// would guarantee nothing. External parties who need evidence of
		// conservation check the published commitments homomorphically, or
		// demand disclosure receipts over them.
		newFrom := &caRecord{v: from.v - amount, r: f.nextBlinding(blindKey, fromLabel)}
		newFrom.c = confassets.Commit(newFrom.v, newFrom.r)
		newTo := &caRecord{v: to.v + amount, r: f.nextBlinding(blindKey, toLabel)}
		newTo.c = confassets.Commit(newTo.v, newTo.r)
		return append(newFrom.encode(), newTo.encode()...), nil

	case caOpVerify:
		if len(in) != 1+confassets.PointSize+confassets.RangeProofSize {
			return nil, confErr("verify: bad request length %d", len(in))
		}
		mConfVerifies.Inc()
		start := time.Now()
		defer mConfVerifySeconds.ObserveSince(start)
		c, err := confassets.DecodeCommitment(in[1 : 1+confassets.PointSize])
		if err != nil {
			mConfRejects.Inc()
			return nil, nil // rejected: contract sees -1
		}
		proof, err := confassets.UnmarshalRangeProof(in[1+confassets.PointSize:])
		if err != nil || !confassets.VerifyRange(c, proof) {
			mConfRejects.Inc()
			return nil, nil // rejected: contract sees -1
		}
		return []byte{1}, nil

	case caOpCommitment:
		if len(in) != 1+caRecordSize {
			return nil, confErr("commitment: bad request length %d", len(in))
		}
		rec, err := decodeCARecord(in[1:])
		if err != nil {
			return nil, confErr("commitment: %v", err)
		}
		return rec.c.Bytes(), nil

	case caOpSupplyAdd:
		if len(in) != 1+caRecordSize+8+8+caLabelSize {
			return nil, confErr("supply: bad request length %d", len(in))
		}
		off := 1
		rec, err := decodeCARecord(in[off : off+caRecordSize])
		if err != nil {
			return nil, confErr("supply: %v", err)
		}
		off += caRecordSize
		delta := binary.BigEndian.Uint64(in[off : off+8])
		capV := binary.BigEndian.Uint64(in[off+8 : off+16])
		label := in[off+16:]
		next := rec.v + delta
		if next < rec.v {
			return nil, confErr("supply: uint64 overflow")
		}
		if capV != 0 && next > capV {
			return nil, confErr("supply: mint exceeds supply cap")
		}
		out := &caRecord{v: next, r: f.nextBlinding(blindKey, label)}
		out.c = confassets.Commit(out.v, out.r)
		return out.encode(), nil

	case caOpAddC:
		if len(in) != 1+2*confassets.PointSize {
			return nil, confErr("addc: bad request length %d", len(in))
		}
		c1, err := confassets.DecodeCommitment(in[1 : 1+confassets.PointSize])
		if err != nil {
			return nil, confErr("addc: %v", err)
		}
		c2, err := confassets.DecodeCommitment(in[1+confassets.PointSize:])
		if err != nil {
			return nil, confErr("addc: %v", err)
		}
		return c1.Add(c2).Bytes(), nil
	}
	return nil, confErr("unknown op %d", in[0])
}

// DisclosureRequest asks the engine for a selective-disclosure receipt
// over one committed state cell. Requests are authenticated: the requester
// signs the canonical statement bytes with its transaction-signing key, and
// the enclave consults the target contract's authorize rule (the same
// well-known method receipt access uses) with the requester's derived
// address before building any proof.
type DisclosureRequest struct {
	Contract  chain.Address
	Key       []byte          // state key of the committed cell
	Kind      confassets.Kind // what to prove
	Threshold uint64          // KindThreshold
	Lo, Hi    uint64          // KindInterval
	Verifier  []byte          // named-verifier tag; for KindOpen, must be the requester
	Height    uint64          // chain height, stamped by the node

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

// SigningBytes is the canonical encoding the requester signs; its SHA-256
// is the digest the contract's authorize rule decides on.
func (req *DisclosureRequest) SigningBytes() []byte {
	return confassets.DisclosureStatementBytes(req.Contract[:], req.Key,
		req.Kind, req.Threshold, req.Lo, req.Hi,
		req.Verifier, req.RequesterPub, req.SigHeight)
}

// disclosureSigWindow bounds how many blocks a signed disclosure request
// stays acceptable around its SigHeight. Within the window a captured
// request can be replayed, but a replay can only re-issue a receipt for the
// identical statement the owner already authorized.
const disclosureSigWindow = 128

// ErrDisclosureDenied is returned when the target contract's authorize rule
// refuses the requester.
var ErrDisclosureDenied = errors.New("core: disclosure: contract denied the requester")

// DisclosureReceipt unseals the committed cell inside the enclave, builds
// the requested proof, and signs the statement with the current epoch's
// sk_tx — the key whose fingerprint the attestation report vouches for.
// The opening never leaves the enclave (except for KindOpen, which is the
// explicit open-to-named-verifier tier).
//
// Before any cell is touched, the request itself must pass three gates
// inside the enclave: the requester's signature over the canonical
// statement bytes verifies, the signature's height stamp is fresh, and the
// target contract's authorize rule — a read-only execution with the
// requester as caller, exactly as for receipt access — approves the
// statement digest. KindOpen additionally requires the verifier tag to be
// the authenticated requester, so a full opening can only be issued to the
// party the contract approved, never to a bystander naming someone else.
func (e *Engine) DisclosureReceipt(req DisclosureRequest) (*confassets.Receipt, error) {
	if e.ring == nil || e.enclave == nil {
		return nil, errors.New("core: disclosure requires the confidential engine")
	}
	if len(req.Key) == 0 || len(req.Key) > 256 || len(req.Verifier) > 256 {
		return nil, errors.New("core: disclosure: bad key or verifier")
	}
	if len(req.RequesterPub) == 0 || len(req.Sig) == 0 {
		return nil, errors.New("core: disclosure: request is not signed")
	}
	var receipt *confassets.Receipt
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

		// The rule decides on the authenticated requester and the statement
		// digest.
		digest := sha256.Sum256(signing)
		ok, err := e.authorize(req.Contract, requester, digest[:])
		if err != nil {
			return fmt.Errorf("core: disclosure rule: %w", err)
		}
		if !ok {
			return ErrDisclosureDenied
		}
		if req.Kind == confassets.KindOpen && !bytes.Equal(req.Verifier, requester[:]) {
			return errors.New("core: disclosure: open receipts must name the authenticated requester as verifier")
		}

		raw, found, err := e.sdm.load(req.Contract, stateKey(req.Contract, req.Key), true)
		if err != nil {
			return err
		}
		if !found {
			return ErrNoDisclosureCell
		}
		cell, err := decodeCARecord(raw)
		if err != nil {
			return fmt.Errorf("core: disclosure: cell is not a committed balance: %w", err)
		}
		epoch := e.ring.Current()
		receipt = &confassets.Receipt{
			Kind:       req.Kind,
			Contract:   req.Contract[:],
			Key:        append([]byte(nil), req.Key...),
			Commitment: cell.c,
			Height:     req.Height,
			Epoch:      epoch,
			Verifier:   append([]byte(nil), req.Verifier...),
		}
		// Proof nonces are derived from the cell's own opening: secret and
		// deterministic. The statement parameters are mixed into the label
		// so receipts over the same cell for different statements (and the
		// two proofs of an interval) never share a nonce key — belt and
		// braces on top of the prover's own commitment binding.
		nk := crypto.DeriveSubKey(confassets.ScalarBytes(cell.r),
			fmt.Sprintf("confide/disclosure-nonce/v2|%d|%d|%d|%d", req.Kind, req.Threshold, req.Lo, req.Hi))
		switch req.Kind {
		case confassets.KindOpen:
			receipt.Value, receipt.Blinding = cell.v, cell.r
		case confassets.KindRange:
			receipt.Proof = confassets.ProveRange64(cell.v, cell.r, nk)
		case confassets.KindThreshold:
			if cell.v < req.Threshold {
				return ErrDisclosureUnsatisfied
			}
			receipt.Threshold = req.Threshold
			receipt.Proof = confassets.ProveRange64(cell.v-req.Threshold, cell.r, nk)
		case confassets.KindInterval:
			if req.Lo > req.Hi || cell.v < req.Lo || cell.v > req.Hi {
				return ErrDisclosureUnsatisfied
			}
			receipt.Lo, receipt.Hi = req.Lo, req.Hi
			receipt.Proof = confassets.ProveRange64(cell.v-req.Lo, cell.r, nk)
			negR := confassets.SubScalars(new(big.Int), cell.r)
			receipt.Proof2 = confassets.ProveRange64(req.Hi-cell.v, negR, nk)
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

// ErrNoDisclosureCell is returned when the requested state key holds no
// value.
var ErrNoDisclosureCell = errors.New("core: disclosure: no such state cell")

// ErrDisclosureUnsatisfied is returned when the committed value does not
// satisfy the requested predicate (v < threshold, or v outside [lo, hi]).
// The enclave refuses to produce the receipt rather than sign a false
// statement — and the error deliberately does not reveal the value.
var ErrDisclosureUnsatisfied = errors.New("core: disclosure: statement not satisfied")
