package core

import (
	"errors"
	"fmt"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/keyepoch"
	"confide/internal/tee"
)

// Receipt access authorization (§3.2.3). Because k_tx is a one-time key,
// a transaction owner can always delegate by handing k_tx over offline.
// CONFIDE additionally provides "a more elegant way": a pre-defined chain
// code receives access requests for receipts (or raw transactions), parses
// them and forwards them to the related user smart contract, where the
// owner has defined the access rules. This file is that chain code's host:
// the enclave recovers k_tx from the original envelope with its long-lived
// sk_tx, asks the target contract's rule, and — only on approval —
// re-seals the data to the requester's own public key. Key material never
// leaves the enclave.

// AuthorizeMethod is the well-known method name the pre-defined chain code
// invokes on the user contract. It receives (requesterAddress, txHash) and
// must output a single 0x01 byte to approve.
const AuthorizeMethod = "authorize"

// Errors.
var (
	ErrAccessDenied    = errors.New("core: contract denied receipt access")
	ErrNoReceipt       = errors.New("core: no stored receipt for transaction")
	ErrNotConfidential = errors.New("core: access requests apply to confidential transactions")
)

// AccessRequest asks for a transaction's sealed receipt (and optionally its
// raw transaction body) to be re-sealed for the requester.
type AccessRequest struct {
	// OrigTx is the wire transaction whose receipt is requested (fetched
	// from any block; its envelope is only openable inside the enclave).
	OrigTx *chain.Tx
	// Requester is the asking party's on-chain address, passed to the
	// user contract's rule.
	Requester chain.Address
	// RequesterPub is the requester's envelope public key; approved data
	// is re-sealed to it.
	RequesterPub []byte
	// IncludeRawTx additionally releases the raw transaction body (the
	// paper's authorization covers "not only ... transaction receipt, but
	// also ... raw transaction information").
	IncludeRawTx bool
}

// AccessGrant is the approved response.
type AccessGrant struct {
	// SealedReceipt is the receipt encoding, sealed to RequesterPub.
	SealedReceipt []byte
	// SealedRawTx is the raw transaction encoding sealed to RequesterPub
	// (only when requested).
	SealedRawTx []byte
}

// HandleAccessRequest runs the pre-defined chain code for one request. The
// whole flow executes inside the CS enclave: envelope opening, the rule
// consultation (a read-only contract execution with the requester as
// caller), receipt decryption and re-sealing.
func (e *Engine) HandleAccessRequest(req AccessRequest) (*AccessGrant, error) {
	if !e.Confidential() {
		return nil, errors.New("core: access requests require the confidential engine")
	}
	if req.OrigTx == nil || req.OrigTx.Type != chain.TxTypeConfidential {
		return nil, ErrNotConfidential
	}
	var grant *AccessGrant
	err := e.enclave.Ecall(len(req.OrigTx.Payload)+len(req.RequesterPub), tee.CopyInOut, func() (err error) {
		grant, err = e.handleAccessInEnclave(req)
		return err
	})
	return grant, err
}

func (e *Engine) handleAccessInEnclave(req AccessRequest) (*AccessGrant, error) {
	// Recover k_tx and the raw transaction with the epoch's sk_tx. Access
	// requests reach back to historical transactions, so any *retained*
	// epoch serves them — the open step alone, no epoch gate. Once an epoch
	// is zeroized its envelopes are unopenable even here: that loss of reach-
	// back is exactly the forward secrecy rotation buys (the owner's k_tx
	// delegation path still works, since k_tx derives from the user root).
	epoch, env, err := keyepoch.ParseEnvelope(req.OrigTx.Payload)
	if err != nil {
		return nil, fmt.Errorf("core: open original envelope: %w", err)
	}
	raw, ktx, body, err := e.openEnvelope(epoch, env)
	if err != nil {
		return nil, fmt.Errorf("core: open original envelope: %w", err)
	}
	txHash := req.OrigTx.Hash()

	// The rule can distinguish who is asking, and about which transaction.
	ok, err := e.authorize(raw.Contract, req.Requester, txHash[:])
	if err != nil {
		return nil, fmt.Errorf("core: access rule: %w", err)
	}
	if !ok {
		return nil, ErrAccessDenied
	}

	// Decrypt the stored receipt with the recovered k_tx.
	sealed, found, err := e.sdm.store.Get(ReceiptKey(txHash))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNoReceipt
	}
	receiptBytes, err := crypto.OpenAEAD(ktx, sealed, txHash[:])
	if err != nil {
		return nil, fmt.Errorf("core: open receipt: %w", err)
	}

	// Re-seal to the requester's own key; k_tx itself is never released.
	grant := &AccessGrant{}
	wrapKey, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	grant.SealedReceipt, err = crypto.SealEnvelope(req.RequesterPub, wrapKey, receiptBytes)
	if err != nil {
		return nil, err
	}
	if req.IncludeRawTx {
		wrapKey2, err := crypto.RandomKey()
		if err != nil {
			return nil, err
		}
		grant.SealedRawTx, err = crypto.SealEnvelope(req.RequesterPub, wrapKey2, body)
		if err != nil {
			return nil, err
		}
	}
	return grant, nil
}

// authorize consults a confidential contract's access rule: a read-only
// execution of `authorize(requester, subject)` with the requester as the
// caller, its writes discarded. Anything but an explicit 0x01 refuses.
func (e *Engine) authorize(contract, requester chain.Address, subject []byte) (bool, error) {
	input := EncodeInput(AuthorizeMethod, requester[:], subject)
	out, err := e.runContract(e.newTxContext(true), contract, input, requester[:], 0)
	return len(out) == 1 && out[0] == 0x01, err
}

// OpenGrantedReceipt is the requester-side helper: it opens a granted
// receipt with the requester's envelope key.
func OpenGrantedReceipt(key *crypto.EnvelopeKey, sealed []byte) (*chain.Receipt, error) {
	_, plain, err := key.OpenEnvelope(sealed)
	if err != nil {
		return nil, err
	}
	return chain.DecodeReceipt(plain)
}

// OpenGrantedRawTx opens a granted raw transaction body.
func OpenGrantedRawTx(key *crypto.EnvelopeKey, sealed []byte) (*chain.RawTx, error) {
	_, plain, err := key.OpenEnvelope(sealed)
	if err != nil {
		return nil, err
	}
	return chain.DecodeRawTx(plain)
}
