package node

import (
	"encoding/binary"

	"confide/internal/chain"
	"confide/internal/storage"
	"confide/internal/storage/vfs"
)

// Block payload and WAL retirement. Once a checkpoint is stable, block
// payloads below `height − Retention` exist only to replay history that any
// lagging peer would now receive as a snapshot instead, so they can be
// retired. The store keeps a base marker recording where the retained chain
// starts; recovery and block catch-up both respect it. Pruning never passes
// the last stable checkpoint, so the snapshot + retained tail always
// reconstruct the full state.

// metaBaseKey marks the lowest locally retained chain position:
// {height, prev-hash of the block at that height}. Written by snapshot
// install and by pruning; read by recoverChainState.
var metaBaseKey = []byte("meta/base")

// readStoreBase loads the base marker, reporting ok=false when the store
// has full history from genesis.
func readStoreBase(store storage.KVStore) (height uint64, prevHash chain.Hash, ok bool) {
	raw, found, err := store.Get(metaBaseKey)
	if err != nil || !found {
		return 0, chain.Hash{}, false
	}
	it, err := chain.Decode(raw)
	if err != nil || !it.IsList || len(it.List) != 2 {
		return 0, chain.Hash{}, false
	}
	h, err := it.List[0].AsUint()
	if err != nil || len(it.List[1].Str) != len(prevHash) {
		return 0, chain.Hash{}, false
	}
	copy(prevHash[:], it.List[1].Str)
	return h, prevHash, true
}

// encodeStoreBase builds the base-marker value.
func encodeStoreBase(height uint64, prevHash chain.Hash) []byte {
	return chain.Encode(chain.List(chain.Uint(height), chain.Bytes(prevHash[:])))
}

// PrunedTo reports the lowest block height whose payload this node retains
// (0 = full history from genesis): the base marker's height. Pruning raises
// it; a snapshot install sets it to the installed checkpoint height.
func (n *Node) PrunedTo() uint64 {
	height, _, _ := readStoreBase(n.store)
	return height
}

// pruneBlocks retires block payloads below checkpointHeight − Retention and
// bounds the WAL. Caller holds applyMu (so heights are stable) and has just
// exported the checkpoint at checkpointHeight, the height the block being
// applied brings the chain to. Retention 0 disables pruning.
func (n *Node) pruneBlocks(checkpointHeight uint64) {
	if n.cfg.Retention == 0 {
		return
	}
	if n.crashHit(vfs.CrashPrune) {
		return
	}
	from := n.PrunedTo()
	if checkpointHeight <= n.cfg.Retention {
		return
	}
	floor := checkpointHeight - n.cfg.Retention
	if floor <= from {
		return
	}
	// The block at the new floor stays; its PrevHash anchors the base
	// marker so recovery can link the retained chain.
	blockAtFloor, err := n.BlockAt(floor)
	if err != nil {
		return
	}
	batch := &storage.Batch{}
	for h := from; h < floor; h++ {
		// A payload goes with the tx→height records that point at it. One
		// that points elsewhere stays: a transaction whose execution failed
		// in this block may have been ordered again and executed in a later one.
		if block, err := n.BlockAt(h); err == nil {
			for _, tx := range block.Txs {
				key := txBlockKey(tx.Hash())
				if at, found, _ := n.store.Get(key); found && len(at) == 8 && binary.BigEndian.Uint64(at) == h {
					batch.Delete(key)
				}
			}
		}
		batch.Delete(BlockKey(h))
	}
	// Sequence records go one lower: the one under the floor stays, so
	// readCommitted can still place a sequence that ordered no block just
	// below the floor block.
	for h := max(from, 1) - 1; h+1 < floor; h++ {
		batch.Delete(blockSeqKey(h))
	}
	batch.Put(metaBaseKey, encodeStoreBase(floor, blockAtFloor.Header.PrevHash))
	if err := n.store.WriteBatch(batch); err != nil {
		return
	}
	mBlocksPruned.Add(floor - from)
	// Fold the memtable to an SSTable so the WAL (which still carries every
	// write since the last flush, deleted payloads included) is truncated:
	// checkpoint cadence bounds WAL growth instead of chain length.
	if lsm, ok := n.store.(*storage.LSMStore); ok {
		_ = lsm.Flush()
	}
}
