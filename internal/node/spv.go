package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"confide/internal/chain"
)

// The paper's §3.3 threat model: a malicious host can hack its own node's
// storage or platform code (everything outside the TEE), so "the
// correctness of a query from a single node is not guaranteed ... to query
// blockchain data from other nodes, a consensus read (e.g. SPV) should be
// performed". This file implements that consensus read: one node serves a
// Merkle inclusion proof for a transaction, and the client checks the
// proof's block header against headers reported by a quorum of other
// nodes — a lie requires f+1 colluding nodes, which consensus already
// assumes impossible.

// TxProof is a self-contained inclusion proof for one transaction.
type TxProof struct {
	// HeaderBytes is the canonical encoding of the containing block's
	// header; its hash is the block identity the quorum vouches for.
	HeaderBytes []byte
	// Height of the containing block.
	Height uint64
	// Tx is the full wire transaction being proven.
	Tx *chain.Tx
	// Index of the transaction within the block.
	Index int
	// Path is the Merkle path from the transaction hash to the header's
	// TxRoot.
	Path []chain.MerkleProofStep
}

// ErrNotFound reports an unknown transaction.
var ErrNotFound = errors.New("node: transaction not found")

// BlockKey is where the block at height lives in a node's store.
func BlockKey(height uint64) []byte {
	var key [12]byte
	copy(key[:4], "blk/")
	binary.BigEndian.PutUint64(key[4:], height)
	return key[:]
}

// blockSeqKey is where the consensus sequence that ordered the block at
// height lives, 8 bytes big-endian, written in that block's atomic batch. A
// sequence maps to no fixed height: a gap-fill no-op or a stale proposal
// takes one and leaves the chain as it was. Under meta/, so no snapshot
// carries the mapping; the one record an installing node needs rides in
// seqTipKey.
func blockSeqKey(height uint64) []byte {
	var key [17]byte
	copy(key[:9], "meta/seq/")
	binary.BigEndian.PutUint64(key[9:], height)
	return key[:]
}

// seqTipKey holds the sequence that ordered the tip block, rewritten in every
// block's batch. Outside meta/, so a checkpoint carries exactly this record:
// the installer files it as its own blockSeqKey(checkpoint height − 1) and
// learns where ordering resumes.
var seqTipKey = []byte("seq/tip")

// BlockAt loads a committed block from this node's store.
func (n *Node) BlockAt(height uint64) (*chain.Block, error) {
	raw, found, err := n.store.Get(BlockKey(height))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("node: no block at height %d", height)
	}
	return chain.DecodeBlock(raw)
}

// HeaderAt returns the canonical header bytes of the block at height — the
// value a light client collects from each node during a consensus read.
func (n *Node) HeaderAt(height uint64) ([]byte, error) {
	block, err := n.BlockAt(height)
	if err != nil {
		return nil, err
	}
	return block.HeaderBytes(), nil
}

// txBlockKey is where the height of the block that executed a transaction
// lives, 8 bytes big-endian: written in that block's atomic batch and deleted
// with its payload by pruneBlocks. Under meta/, so no snapshot carries it — a
// snapshot carries no payloads to prove against either.
func txBlockKey(txHash chain.Hash) []byte {
	return append([]byte("meta/tx/"), txHash[:]...)
}

// ProveTx builds a Merkle inclusion proof for a committed transaction whose
// block this node retains (ErrNotFound otherwise).
func (n *Node) ProveTx(txHash chain.Hash) (*TxProof, error) {
	raw, found, err := n.store.Get(txBlockKey(txHash))
	if err != nil {
		return nil, err
	}
	if !found || len(raw) != 8 {
		return nil, ErrNotFound
	}
	block, err := n.BlockAt(binary.BigEndian.Uint64(raw))
	if err != nil {
		return nil, err
	}
	leaves := make([]chain.Hash, len(block.Txs))
	index := -1
	for i, tx := range block.Txs {
		leaves[i] = tx.Hash()
		if leaves[i] == txHash {
			index = i
		}
	}
	if index < 0 {
		return nil, ErrNotFound
	}
	return &TxProof{
		HeaderBytes: block.HeaderBytes(),
		Height:      block.Header.Height,
		Tx:          block.Txs[index],
		Index:       index,
		Path:        chain.MerkleProof(leaves, index),
	}, nil
}

// ErrBadProof reports a proof that fails local verification.
var ErrBadProof = errors.New("node: invalid inclusion proof")

// ErrNoQuorum reports that too few independent nodes vouch for the proof's
// block header.
var ErrNoQuorum = errors.New("node: header quorum not reached")

// VerifyTxProof checks the proof's internal consistency: the transaction
// hashes to the proven leaf and the Merkle path lands on the header's
// TxRoot. It does NOT establish that the header is the canonical one —
// that is the quorum's job (VerifyConsensusRead).
func VerifyTxProof(p *TxProof) error {
	hdr, err := chain.DecodeHeader(p.HeaderBytes)
	if err != nil || !chain.VerifyMerkleProof(hdr.TxRoot, p.Tx.Hash(), p.Path) {
		return ErrBadProof
	}
	return nil
}

// VerifyConsensusRead performs the full consensus read: the proof must be
// internally valid AND its header must match the header reported by at
// least quorum of the provided witnesses (independent nodes). With
// quorum = f+1 under the usual n = 3f+1, at least one honest node vouches
// for the header.
func VerifyConsensusRead(p *TxProof, witnesses []*Node, quorum int) error {
	if err := VerifyTxProof(p); err != nil {
		return err
	}
	agree := 0
	for _, w := range witnesses {
		hdr, err := w.HeaderAt(p.Height)
		if err != nil {
			continue
		}
		if bytes.Equal(hdr, p.HeaderBytes) {
			agree++
		}
	}
	if agree < quorum {
		return fmt.Errorf("%w: %d of %d witnesses agree (need %d)", ErrNoQuorum, agree, len(witnesses), quorum)
	}
	return nil
}
