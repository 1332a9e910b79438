package node

import (
	"errors"
	"testing"

	"confide/internal/chain"
	"confide/internal/core"
)

// spvCluster commits a few transactions and returns the cluster plus their
// hashes.
func spvCluster(t *testing.T) (*Cluster, []chain.Hash) {
	t.Helper()
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	var hashes []chain.Hash
	for i := 0; i < 5; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("spv"), []byte{byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, tx.Hash())
	}
	drain(t, c)
	return c, hashes
}

func TestProveTxAndConsensusRead(t *testing.T) {
	c, hashes := spvCluster(t)
	for _, h := range hashes {
		proof, err := c.Nodes[1].ProveTx(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyTxProof(proof); err != nil {
			t.Fatalf("valid proof rejected: %v", err)
		}
		// Consensus read against the other three nodes (f = 1 → quorum 2).
		witnesses := []*Node{c.Nodes[0], c.Nodes[2], c.Nodes[3]}
		if err := VerifyConsensusRead(proof, witnesses, 2); err != nil {
			t.Fatalf("consensus read failed: %v", err)
		}
		if proof.Tx.Hash() != h {
			t.Error("proof carries the wrong transaction")
		}
	}
}

func TestProveTxUnknown(t *testing.T) {
	c, _ := spvCluster(t)
	var ghost chain.Hash
	ghost[0] = 0xff
	if _, err := c.Nodes[0].ProveTx(ghost); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestTamperedProofRejected(t *testing.T) {
	c, hashes := spvCluster(t)
	proof, err := c.Nodes[0].ProveTx(hashes[0])
	if err != nil {
		t.Fatal(err)
	}

	// Swap in a different transaction: the Merkle path no longer lands on
	// the header's TxRoot.
	forged := *proof
	forged.Tx = &chain.Tx{Type: chain.TxTypePublic, Payload: []byte("forged")}
	if err := VerifyTxProof(&forged); !errors.Is(err, ErrBadProof) {
		t.Errorf("forged tx: err = %v, want ErrBadProof", err)
	}

	// Corrupt a path step.
	forged2 := *proof
	forged2.Path = append([]chain.MerkleProofStep(nil), proof.Path...)
	if len(forged2.Path) > 0 {
		forged2.Path[0].Sibling[0] ^= 1
		if err := VerifyTxProof(&forged2); !errors.Is(err, ErrBadProof) {
			t.Errorf("corrupt path: err = %v, want ErrBadProof", err)
		}
	}

	// Garbage header bytes.
	forged3 := *proof
	forged3.HeaderBytes = []byte{0x01, 0x02}
	if err := VerifyTxProof(&forged3); !errors.Is(err, ErrBadProof) {
		t.Errorf("garbage header: err = %v, want ErrBadProof", err)
	}

	// Five well-formed fields, but a 31-byte TxRoot.
	hdr, err := chain.DecodeHeader(proof.HeaderBytes)
	if err != nil {
		t.Fatal(err)
	}
	forged4 := *proof
	forged4.HeaderBytes = chain.Encode(chain.List(
		chain.Uint(hdr.Height), chain.Bytes(hdr.PrevHash[:]), chain.Bytes(hdr.TxRoot[:31]),
		chain.Uint(hdr.Timestamp), chain.Uint(uint64(hdr.Proposer)),
	))
	if err := VerifyTxProof(&forged4); !errors.Is(err, ErrBadProof) {
		t.Errorf("31-byte tx root: err = %v, want ErrBadProof", err)
	}
}

func TestMaliciousHostDetectedByQuorum(t *testing.T) {
	// A malicious host rewrites its local chain database (§3.3). It can
	// forge a self-consistent proof — valid Merkle path over a fake block —
	// but the quorum of honest nodes will not vouch for its header.
	c, hashes := spvCluster(t)
	evil := c.Nodes[3]

	// The evil node rewrites the block containing hashes[0]: it drops the
	// transaction and re-commits the block record in its own store.
	proof, err := evil.ProveTx(hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	block, err := evil.BlockAt(proof.Height)
	if err != nil {
		t.Fatal(err)
	}
	fake := &chain.Block{Header: block.Header}
	fake.Txs = []*chain.Tx{{Type: chain.TxTypePublic, Payload: []byte("rewritten history")}}
	fake.ComputeTxRoot() // header now differs from the canonical one
	if err := evil.Store().Put(BlockKey(proof.Height), fake.Encode()); err != nil {
		t.Fatal(err)
	}

	// The evil node's proof for its fake transaction is self-consistent...
	evilLeaves := []chain.Hash{fake.Txs[0].Hash()}
	evilProof := &TxProof{
		HeaderBytes: fake.HeaderBytes(),
		Height:      proof.Height,
		Tx:          fake.Txs[0],
		Index:       0,
		Path:        chain.MerkleProof(evilLeaves, 0),
	}
	if err := VerifyTxProof(evilProof); err != nil {
		t.Fatalf("self-consistent forgery should pass local checks: %v", err)
	}
	// ...but the consensus read exposes it.
	witnesses := []*Node{c.Nodes[0], c.Nodes[1], c.Nodes[2]}
	if err := VerifyConsensusRead(evilProof, witnesses, 2); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("forgery passed consensus read: %v", err)
	}
	// The honest proof still verifies through honest witnesses.
	honest, err := c.Nodes[0].ProveTx(hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsensusRead(honest, []*Node{c.Nodes[1], c.Nodes[2]}, 2); err != nil {
		t.Errorf("honest consensus read failed: %v", err)
	}
}

func TestHeaderAtMissingBlock(t *testing.T) {
	c, _ := spvCluster(t)
	if _, err := c.Nodes[0].HeaderAt(10_000); err == nil {
		t.Error("missing block should error")
	}
}

func TestBlockAtRoundTrip(t *testing.T) {
	c, hashes := spvCluster(t)
	proof, _ := c.Nodes[0].ProveTx(hashes[0])
	block, err := c.Nodes[0].BlockAt(proof.Height)
	if err != nil {
		t.Fatal(err)
	}
	if block.Header.Height != proof.Height {
		t.Error("block height mismatch")
	}
	found := false
	for _, tx := range block.Txs {
		if tx.Hash() == hashes[0] {
			found = true
		}
	}
	if !found {
		t.Error("committed tx missing from its block")
	}
}

// Guard: the public engine-facing behavior of receipts — core.OpenReceipt
// with a wrong key — stays locked down even via the node surface.
func TestStoredReceiptWrongKeyFails(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	client := newClusterClient(t, c)
	tx, _, _ := client.NewConfidentialTx(ledgerAddr, "credit", acct("w"), []byte{9})
	c.Submit(tx)
	drain(t, c)
	sealed, found, err := c.Nodes[0].StoredReceipt(tx.Hash())
	if err != nil || !found {
		t.Fatal("receipt missing")
	}
	wrong := make([]byte, 32)
	if _, err := core.OpenReceipt(sealed, wrong, tx.Hash()); err == nil {
		t.Error("receipt opened with the wrong k_tx")
	}
}
