package core

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/keyepoch"
	"confide/internal/tee"
)

// Client is the user-side half of the T-Protocol: it builds confidential
// transactions as crypto digital envelopes under the engine's pk_tx, derives
// the one-time key k_tx for each, and opens sealed receipts.
type Client struct {
	signer  *crypto.Signer
	rootKey []byte
	pkTx    []byte
	epoch   uint64 // key epoch of pkTx; stamps every envelope header
	nonce   uint64
}

// NewClient creates a client identity. pkTx may be nil for clients that
// only send public transactions. The key is assumed to belong to epoch 1
// (the provisioning epoch); after a rotation, clients refresh with
// SetEnvelopeKey.
func NewClient(pkTx []byte) (*Client, error) {
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return nil, err
	}
	rootKey, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	return &Client{signer: signer, rootKey: rootKey, pkTx: pkTx, epoch: 1}, nil
}

// SetEnvelopeKey adopts a new epoch's pk_tx (fetched from the engine after
// a rotation, typically re-verified via VerifyEngine against a fresh
// attestation). Subsequent envelopes are sealed to it and tagged with the
// epoch.
func (c *Client) SetEnvelopeKey(epoch uint64, pkTx []byte) {
	c.epoch = epoch
	c.pkTx = pkTx
}

// EnvelopeEpoch reports the epoch the client currently seals to.
func (c *Client) EnvelopeEpoch() uint64 { return c.epoch }

// EnvelopePublicKey returns the attested pk_tx the client currently holds
// (nil for public-only clients). Disclosure receipts are verified against
// this key.
func (c *Client) EnvelopePublicKey() []byte { return c.pkTx }

// Address returns the client's on-chain address.
func (c *Client) Address() chain.Address {
	return chain.Address(c.signer.Address())
}

// ErrUntrustedEngine is returned when an engine's attestation does not
// vouch for the offered pk_tx.
var ErrUntrustedEngine = errors.New("core: engine attestation does not match pk_tx")

// VerifyEngine checks an engine's remote-attestation report against the
// manufacturer verifier and expected enclave measurement, and confirms that
// the offered pk_tx's fingerprint is locked inside the report — the
// T-Protocol's man-in-the-middle defence. On success the client trusts and
// records pk_tx.
func (c *Client) VerifyEngine(report tee.Report, verifier *ecdsa.PublicKey, expectedMeasurement [32]byte, pkTx []byte) error {
	if err := tee.VerifyReport(verifier, report, expectedMeasurement); err != nil {
		return err
	}
	fp := crypto.PublicFingerprint(pkTx)
	if string(report.ReportData[:32]) != string(fp[:]) {
		return ErrUntrustedEngine
	}
	c.pkTx = pkTx
	return nil
}

// signedRaw assembles and signs a raw transaction body.
func (c *Client) signedRaw(contract chain.Address, method string, args [][]byte) (*chain.RawTx, error) {
	c.nonce++
	raw := &chain.RawTx{
		From:      c.Address(),
		Contract:  contract,
		Method:    method,
		Args:      args,
		Nonce:     c.nonce,
		SenderPub: c.signer.Public(),
	}
	sig, err := c.signer.Sign(raw.SigningBytes())
	if err != nil {
		return nil, err
	}
	raw.Signature = sig
	return raw, nil
}

// SignDisclosure authenticates a disclosure request: it stamps the client's
// verification key into the request and signs the canonical statement
// bytes. The enclave verifies the signature, derives the requester's
// on-chain address from the key, and consults the target contract's
// authorize rule before it reads the cell. Callers set SigHeight to a
// recent chain height first; Verifier and the statement parameters are
// covered by the signature, so they cannot be altered in flight.
func (c *Client) SignDisclosure(req *DisclosureRequest) error {
	req.RequesterPub = c.signer.Public()
	sig, err := c.signer.Sign(req.SigningBytes())
	if err != nil {
		return err
	}
	req.Sig = sig
	return nil
}

// NewPublicTx builds a plaintext (TYPE=0) transaction.
func (c *Client) NewPublicTx(contract chain.Address, method string, args ...[]byte) (*chain.Tx, error) {
	raw, err := c.signedRaw(contract, method, args)
	if err != nil {
		return nil, err
	}
	return &chain.Tx{Type: chain.TxTypePublic, Payload: raw.Encode()}, nil
}

// NewConfidentialTx builds a TYPE=1 transaction per formula (1):
//
//	Tx_conf = Enc(pk_tx, k_tx) | Enc(k_tx, Tx_raw)
//
// It returns the wire transaction and k_tx, which the client keeps (or
// re-derives from its root key) to open the receipt, and may hand to a
// delegate to authorize offline access.
func (c *Client) NewConfidentialTx(contract chain.Address, method string, args ...[]byte) (*chain.Tx, []byte, error) {
	if c.pkTx == nil {
		return nil, nil, errors.New("core: client has no verified pk_tx")
	}
	start := time.Now()
	defer mSealSeconds.ObserveSince(start)
	raw, err := c.signedRaw(contract, method, args)
	if err != nil {
		return nil, nil, err
	}
	body := raw.Encode()
	// k_tx is derived from the user root key and the transaction (body)
	// hash: one key per transaction, re-derivable by the owner.
	bodyHash := sha256.Sum256(body)
	ktx := crypto.DeriveTxKey(c.rootKey, bodyHash)
	env, err := crypto.SealEnvelope(c.pkTx, ktx, body)
	if err != nil {
		return nil, nil, err
	}
	payload := keyepoch.WrapEnvelope(c.epoch, env)
	return &chain.Tx{Type: chain.TxTypeConfidential, Payload: payload}, ktx, nil
}

// OpenReceipt decrypts a sealed receipt with the transaction's one-time
// key.
func OpenReceipt(sealed []byte, ktx []byte, txHash chain.Hash) (*chain.Receipt, error) {
	plain, err := crypto.OpenAEAD(ktx, sealed, txHash[:])
	if err != nil {
		return nil, fmt.Errorf("core: open receipt: %w", err)
	}
	return chain.DecodeReceipt(plain)
}
