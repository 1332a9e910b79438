package keyepoch

import (
	"encoding/binary"
	"errors"

	"confide/internal/chain"
)

// Wire and storage codecs for epoch versioning.
//
// Two byte-level tags exist, both a magic byte followed by the epoch as a
// uvarint:
//
//   - envelope headers prefix a confidential transaction's digital envelope
//     so every replica can route the envelope to the right epoch's sk_tx —
//     and reject stale epochs — from public bytes, before any decryption;
//   - record tags prefix every sealed state/code ciphertext in the KV store
//     so reads pick the right per-epoch k_states sub-key and the re-seal
//     sweep can find old-epoch records by header inspection alone.
//
// The tag itself is not separately authenticated: flipping the epoch byte
// reroutes the ciphertext to a different AEAD key, and the GCM tag check
// under that key fails — tampering converts to a deterministic decrypt
// failure, which is exactly how a wrong-key ciphertext already fails.
//
// Both are strict: a payload without its tag is ErrBadHeader. The magics are
// chosen away from 0x04, the first byte of the uncompressed SEC1 point an
// envelope proper begins with, so a client that forgot WrapEnvelope is
// rejected rather than misread.

const (
	// envelopeMagic starts an epoch-tagged envelope.
	envelopeMagic byte = 0xE7
	// recordMagic starts an epoch-tagged sealed storage record.
	recordMagic byte = 0xE8
)

// ErrBadHeader reports a malformed epoch header or record tag.
var ErrBadHeader = errors.New("keyepoch: malformed epoch header")

// appendTag writes magic and the epoch uvarint.
func appendTag(dst []byte, magic byte, e uint64) []byte {
	dst = append(dst, magic)
	var buf [binary.MaxVarintLen64]byte
	return append(dst, buf[:binary.PutUvarint(buf[:], e)]...)
}

// parseTag strips a magic-and-epoch prefix.
func parseTag(data []byte, magic byte) (uint64, []byte, error) {
	if len(data) < 2 || data[0] != magic {
		return 0, nil, ErrBadHeader
	}
	e, n := binary.Uvarint(data[1:])
	if n <= 0 || e == 0 {
		return 0, nil, ErrBadHeader
	}
	return e, data[1+n:], nil
}

// WrapEnvelope prefixes a sealed T-Protocol envelope with its epoch header.
func WrapEnvelope(e uint64, env []byte) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(env))
	return append(appendTag(out, envelopeMagic, e), env...)
}

// ParseEnvelope splits a confidential transaction payload into its epoch and
// the envelope proper.
func ParseEnvelope(payload []byte) (uint64, []byte, error) {
	return parseTag(payload, envelopeMagic)
}

// WrapRecord prefixes a sealed storage record with its epoch tag.
func WrapRecord(e uint64, sealed []byte) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(sealed))
	return append(appendTag(out, recordMagic, e), sealed...)
}

// ParseRecord splits a stored value into its epoch tag and the sealed
// ciphertext. Strict: every confidential record carries a tag.
func ParseRecord(value []byte) (uint64, []byte, error) {
	return parseTag(value, recordMagic)
}

// Rotation is the governance action that schedules an epoch rotation: once
// ordered by consensus, every replica installs epoch NewEpoch when its chain
// reaches ActivationHeight. Both fields are validated against the replica's
// deterministic state at execution (NewEpoch must be current+1, the height
// strictly in the future), so all replicas accept or reject identically.
type Rotation struct {
	// NewEpoch is the epoch to activate (must be the successor of the epoch
	// current when the transaction executes).
	NewEpoch uint64
	// ActivationHeight is the block height at which the rotation takes
	// effect: the block at this height (and everything after) executes under
	// the new epoch.
	ActivationHeight uint64
}

// ErrBadRotation reports a structurally invalid rotation payload.
var ErrBadRotation = errors.New("keyepoch: malformed rotation transaction")

// Encode serializes the rotation as a governance-transaction payload.
func (r Rotation) Encode() []byte {
	return chain.Encode(chain.List(chain.Uint(r.NewEpoch), chain.Uint(r.ActivationHeight)))
}

// DecodeRotation reverses Rotation.Encode. Epoch 1 is the provisioning
// epoch and can never be (re-)activated by governance.
func DecodeRotation(data []byte) (Rotation, error) {
	it, err := chain.Decode(data)
	if err != nil || !it.IsList || len(it.List) != 2 {
		return Rotation{}, ErrBadRotation
	}
	var r Rotation
	if r.NewEpoch, err = it.List[0].AsUint(); err != nil || r.NewEpoch < 2 {
		return Rotation{}, ErrBadRotation
	}
	if r.ActivationHeight, err = it.List[1].AsUint(); err != nil {
		return Rotation{}, ErrBadRotation
	}
	return r, nil
}
