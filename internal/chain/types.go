package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	ccrypto "confide/internal/crypto"
)

// Address identifies an account or contract on chain.
type Address [20]byte

// Hash is a 32-byte digest.
type Hash [32]byte

// String renders an address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// String renders a hash as 0x-prefixed hex.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// AddressFromBytes builds an Address from up to 20 bytes (left-padded).
func AddressFromBytes(b []byte) Address {
	var a Address
	if len(b) > 20 {
		b = b[len(b)-20:]
	}
	copy(a[20-len(b):], b)
	return a
}

// Transaction types, per Figure 3: confidential transactions carry TYPE=1
// and are routed to the Confidential-Engine.
const (
	TxTypePublic       uint8 = 0
	TxTypeConfidential uint8 = 1
	// TxTypeGovernance carries a platform governance action (currently only
	// key-epoch rotation scheduling). It is ordered by consensus like any
	// transaction but applied by the platform, not a contract VM, and its
	// payload and receipt are public by construction.
	TxTypeGovernance uint8 = 2
)

// RawTx is the plaintext transaction body (Tx_raw): the business action a
// client signs. For confidential transactions it travels only inside the
// T-Protocol envelope and is visible exclusively to the enclave.
type RawTx struct {
	From     Address
	Contract Address
	Method   string
	Args     [][]byte
	Nonce    uint64
	// SenderPub is the serialized verification key matching From.
	SenderPub []byte
	// Signature covers SigningBytes().
	Signature []byte
}

// SigningBytes returns the canonical byte string the client signs.
func (r *RawTx) SigningBytes() []byte {
	args := make([]Item, len(r.Args))
	for i, a := range r.Args {
		args[i] = Bytes(a)
	}
	return Encode(List(
		Bytes(r.From[:]),
		Bytes(r.Contract[:]),
		String(r.Method),
		List(args...),
		Uint(r.Nonce),
		Bytes(r.SenderPub),
	))
}

// Encode serializes the raw transaction including its signature.
func (r *RawTx) Encode() []byte {
	args := make([]Item, len(r.Args))
	for i, a := range r.Args {
		args[i] = Bytes(a)
	}
	return Encode(List(
		Bytes(r.From[:]),
		Bytes(r.Contract[:]),
		String(r.Method),
		List(args...),
		Uint(r.Nonce),
		Bytes(r.SenderPub),
		Bytes(r.Signature),
	))
}

// ErrBadTx reports a malformed transaction encoding.
var ErrBadTx = errors.New("chain: malformed transaction")

// DecodeRawTx reverses RawTx.Encode.
func DecodeRawTx(data []byte) (*RawTx, error) {
	it, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTx, err)
	}
	if !it.IsList || len(it.List) != 7 {
		return nil, fmt.Errorf("%w: want 7 fields", ErrBadTx)
	}
	var r RawTx
	if len(it.List[0].Str) != 20 || len(it.List[1].Str) != 20 {
		return nil, fmt.Errorf("%w: bad address length", ErrBadTx)
	}
	copy(r.From[:], it.List[0].Str)
	copy(r.Contract[:], it.List[1].Str)
	r.Method = string(it.List[2].Str)
	if !it.List[3].IsList {
		return nil, fmt.Errorf("%w: args must be a list", ErrBadTx)
	}
	for _, a := range it.List[3].List {
		if a.IsList {
			return nil, fmt.Errorf("%w: nested arg list", ErrBadTx)
		}
		r.Args = append(r.Args, a.Str)
	}
	r.Nonce, err = it.List[4].AsUint()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTx, err)
	}
	r.SenderPub = it.List[5].Str
	r.Signature = it.List[6].Str
	return &r, nil
}

// VerifySignature checks the embedded signature and that the sender key
// matches the From address.
func (r *RawTx) VerifySignature() error {
	h := ccrypto.Keccak256(r.SenderPub)
	var derived Address
	copy(derived[:], h[12:])
	if derived != r.From {
		return fmt.Errorf("%w: sender key does not match From address", ErrBadTx)
	}
	return ccrypto.Verify(r.SenderPub, r.SigningBytes(), r.Signature)
}

// Tx is a wire transaction. Public transactions carry the encoded RawTx in
// the clear; confidential transactions carry the T-Protocol envelope, so
// nothing about the business action (not even the target contract) leaks
// outside the enclave.
//
// Type and Payload must not be mutated after the first Encode or Hash call:
// the wire encoding and the identity digest are each computed once and
// cached, since a transaction is encoded for gossip and for every block that
// carries it, and its hash is consulted on every pool pass, OCC speculation,
// and commit sweep. A decoded transaction keeps its input as its encoding.
type Tx struct {
	Type    uint8
	Payload []byte

	encOnce  sync.Once
	enc      []byte
	hashOnce sync.Once
	hash     Hash
}

// Encode returns the wire encoding, built once. The bytes are shared and
// read-only; their capacity is clipped, so an append copies them.
func (t *Tx) Encode() []byte {
	t.encOnce.Do(func() {
		if t.enc == nil {
			t.enc = Encode(List(Uint(uint64(t.Type)), Bytes(t.Payload)))
		}
	})
	return t.enc[:len(t.enc):len(t.enc)]
}

// DecodeTx reverses Tx.Encode. The transaction aliases data, which Decode
// has checked is canonical and so is exactly what Encode would build.
func DecodeTx(data []byte) (*Tx, error) {
	it, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTx, err)
	}
	if !it.IsList || len(it.List) != 2 {
		return nil, fmt.Errorf("%w: want 2 fields", ErrBadTx)
	}
	typ, err := it.List[0].AsUint()
	if err != nil || typ > 2 {
		return nil, fmt.Errorf("%w: bad type", ErrBadTx)
	}
	return &Tx{Type: uint8(typ), Payload: it.List[1].Str, enc: data[:len(data):len(data)]}, nil
}

// Hash returns the transaction identity: SHA-256 over the wire encoding
// (computed once, then served from the cache).
func (t *Tx) Hash() Hash {
	t.hashOnce.Do(func() { t.hash = sha256.Sum256(t.Encode()) })
	return t.hash
}

// Receipt statuses.
const (
	ReceiptOK     uint8 = 0
	ReceiptFailed uint8 = 1
)

// Receipt (Rpt_raw) records a transaction's execution outcome. For
// confidential transactions the platform stores it sealed under k_tx
// (formula 2), so only the transaction owner — or whoever they hand the
// one-time key to — can read it.
type Receipt struct {
	TxHash  Hash
	From    Address
	To      Address
	Status  uint8
	GasUsed uint64
	Output  []byte
	Logs    []string
}

// Encode serializes the receipt.
func (r *Receipt) Encode() []byte {
	logs := make([]Item, len(r.Logs))
	for i, l := range r.Logs {
		logs[i] = String(l)
	}
	return Encode(List(
		Bytes(r.TxHash[:]),
		Bytes(r.From[:]),
		Bytes(r.To[:]),
		Uint(uint64(r.Status)),
		Uint(r.GasUsed),
		Bytes(r.Output),
		List(logs...),
	))
}

// DecodeReceipt reverses Receipt.Encode.
func DecodeReceipt(data []byte) (*Receipt, error) {
	it, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("chain: malformed receipt: %w", err)
	}
	if !it.IsList || len(it.List) != 7 {
		return nil, errors.New("chain: malformed receipt: want 7 fields")
	}
	var r Receipt
	if len(it.List[0].Str) != 32 || len(it.List[1].Str) != 20 || len(it.List[2].Str) != 20 {
		return nil, errors.New("chain: malformed receipt: bad field lengths")
	}
	copy(r.TxHash[:], it.List[0].Str)
	copy(r.From[:], it.List[1].Str)
	copy(r.To[:], it.List[2].Str)
	status, err := it.List[3].AsUint()
	if err != nil {
		return nil, err
	}
	r.Status = uint8(status)
	if r.GasUsed, err = it.List[4].AsUint(); err != nil {
		return nil, err
	}
	r.Output = it.List[5].Str
	for _, l := range it.List[6].List {
		r.Logs = append(r.Logs, string(l.Str))
	}
	return &r, nil
}

// Header is a block header.
type Header struct {
	Height    uint64
	PrevHash  Hash
	TxRoot    Hash
	Timestamp uint64
	Proposer  uint32
}

// Block bundles ordered transactions under a header.
//
// Attestation, when present, is the proposer enclave's claim that it
// pre-verified every transaction beneath the root, sealed together with the
// one-time keys of the block's confidential transactions (block order, none
// for a public-only block) so the follower enclaves skip both the signature
// checks and the envelopes' private-key opens. It rides outside the header,
// so the block hash (and with it SPV proofs and the prev-hash chain) is
// unchanged; a follower that cannot open it verifies everything itself. The
// node strips an attestation that carries keys before the block is stored,
// so such a block read back from a store or a sync response has none.
type Block struct {
	Header      Header
	Txs         []*Tx
	Attestation []byte
}

// HeaderBytes returns the canonical header encoding.
func (b *Block) HeaderBytes() []byte {
	return Encode(List(
		Uint(b.Header.Height),
		Bytes(b.Header.PrevHash[:]),
		Bytes(b.Header.TxRoot[:]),
		Uint(b.Header.Timestamp),
		Uint(uint64(b.Header.Proposer)),
	))
}

// DecodeHeader reverses HeaderBytes. It is the one reader of the header
// layout: DecodeBlock and both SPV verifiers (node.VerifyTxProof,
// gateway.VerifyProof) go through it.
func DecodeHeader(data []byte) (Header, error) {
	var h Header
	hdr, err := Decode(data)
	if err != nil || !hdr.IsList || len(hdr.List) != 5 {
		return h, errors.New("chain: malformed block header")
	}
	if h.Height, err = hdr.List[0].AsUint(); err != nil {
		return h, err
	}
	if len(hdr.List[1].Str) != 32 || len(hdr.List[2].Str) != 32 {
		return h, errors.New("chain: malformed block header hashes")
	}
	copy(h.PrevHash[:], hdr.List[1].Str)
	copy(h.TxRoot[:], hdr.List[2].Str)
	if h.Timestamp, err = hdr.List[3].AsUint(); err != nil {
		return h, err
	}
	proposer, err := hdr.List[4].AsUint()
	if err != nil {
		return h, err
	}
	h.Proposer = uint32(proposer)
	return h, nil
}

// Hash returns the block identity.
func (b *Block) Hash() Hash { return sha256.Sum256(b.HeaderBytes()) }

// ComputeTxRoot fills the header's transaction Merkle root from the block's
// transactions and returns it.
func (b *Block) ComputeTxRoot() Hash {
	b.Header.TxRoot = TxRoot(b.Txs)
	return b.Header.TxRoot
}

// TxRoot is the Merkle root over the transactions' hashes in order: what a
// block header commits to, and what every reader of a block that travelled
// outside consensus recomputes before trusting its contents.
func TxRoot(txs []*Tx) Hash {
	leaves := make([]Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Hash()
	}
	return MerkleRoot(leaves)
}

// Encode serializes the whole block.
func (b *Block) Encode() []byte {
	txs := make([]Item, len(b.Txs))
	for i, tx := range b.Txs {
		txs[i] = Bytes(tx.Encode())
	}
	items := []Item{Bytes(b.HeaderBytes()), List(txs...)}
	if len(b.Attestation) > 0 {
		items = append(items, Bytes(b.Attestation))
	}
	return Encode(List(items...))
}

// DecodeBlock reverses Block.Encode.
func DecodeBlock(data []byte) (*Block, error) {
	it, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("chain: malformed block: %w", err)
	}
	if !it.IsList || len(it.List) < 2 || len(it.List) > 3 || !it.List[1].IsList {
		return nil, errors.New("chain: malformed block")
	}
	var b Block
	if b.Header, err = DecodeHeader(it.List[0].Str); err != nil {
		return nil, err
	}
	for _, raw := range it.List[1].List {
		tx, err := DecodeTx(raw.Str)
		if err != nil {
			return nil, err
		}
		b.Txs = append(b.Txs, tx)
	}
	if len(it.List) == 3 {
		if it.List[2].IsList {
			return nil, errors.New("chain: malformed block trailer")
		}
		b.Attestation = it.List[2].Str
	}
	return &b, nil
}
