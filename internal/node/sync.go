package node

import (
	"time"

	"confide/internal/chain"
	"confide/internal/p2p"
)

// Block catch-up sync. Consensus retransmission recovers messages lost in
// flight, but a node that was crashed or partitioned for several blocks may
// find the replica's in-memory committed log already pruned. This layer
// closes such gaps at the chain level: every node gossips its height, a
// lagging node requests the blocks it is missing from a peer that has them,
// verifies each against its own tip (prev-hash link + recomputed tx root),
// and replays them through the same applyBlock path consensus uses. After
// replay the consensus replica is advanced past the synced sequences so it
// rejoins ordering at the live tip.

const (
	syncStatusTopic = "confide/sync/status"
	syncReqTopic    = "confide/sync/req"
	syncRespTopic   = "confide/sync/resp"

	// syncBatch bounds blocks served per sync response.
	syncBatch = 16
)

// startSync subscribes the sync handlers and launches the height-gossip
// loop.
func (n *Node) startSync() {
	n.endpoint.Subscribe(syncStatusTopic, n.onSyncStatus)
	n.endpoint.Subscribe(syncReqTopic, n.onSyncReq)
	n.endpoint.Subscribe(syncRespTopic, n.onSyncResp)
	n.spawn(n.syncLoop)
}

func (n *Node) syncLoop() {
	ticker := time.NewTicker(n.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			// Checkpoint announce goes out before the height status:
			// delivery is FIFO per sender, so a far-behind peer opens its
			// snapshot session before it reacts to the height gap, and
			// onSyncStatus correctly defers to the snapshot path.
			n.announceCheckpoint()
			n.endpoint.Broadcast(syncStatusTopic,
				chain.Encode(chain.Uint(n.Height())))
		}
	}
}

// onSyncStatus reacts to a peer's height announcement: if the peer is
// ahead, request the missing blocks from it. Requests are rate-limited so a
// burst of announcements from many peers yields one in-flight request.
func (n *Node) onSyncStatus(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || it.IsList {
		return
	}
	peerHeight, err := it.AsUint()
	if err != nil {
		return
	}
	// Compare against what the node has already secured locally, not the
	// executed tip: under pipelining (execute-behind-order) the tip trails
	// delivery by up to the window depth at all times, and treating that
	// lag as missing blocks turns every height announcement into a
	// redundant full-block re-request of blocks already sitting in the
	// executor queue.
	height := n.syncedHeight()
	if peerHeight <= height {
		return
	}
	if n.snapshotFetchActive() {
		// A snapshot fast-sync is in flight and will land past these
		// blocks; requesting them now would just be thrown away.
		return
	}
	n.syncMu.Lock()
	now := time.Now()
	if now.Sub(n.syncLastReq) < n.cfg.SyncInterval/2 {
		n.syncMu.Unlock()
		return
	}
	n.syncLastReq = now
	n.syncMu.Unlock()
	n.endpoint.Send(m.From, syncReqTopic, chain.Encode(chain.Uint(height)))
}

// onSyncReq serves up to syncBatch stored blocks starting at the requested
// height as one response.
func (n *Node) onSyncReq(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || it.IsList {
		return
	}
	from, err := it.AsUint()
	if err != nil {
		return
	}
	var blocks []chain.Item
	for h := from; h < from+syncBatch; h++ {
		raw, found, err := n.store.Get(BlockKey(h))
		if err != nil || !found {
			break
		}
		blocks = append(blocks, chain.Bytes(raw))
	}
	if len(blocks) == 0 {
		return
	}
	n.endpoint.Send(m.From, syncRespTopic, chain.Encode(chain.List(blocks...)))
}

// onSyncResp replays fetched blocks in order through applyBlock (which
// enforces the prev-hash link and tx-root integrity), then advances the
// consensus replica past everything applied.
func (n *Node) onSyncResp(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || !it.IsList {
		return
	}
	applied := false
	for _, raw := range it.List {
		if !n.applyBlock(raw.Str) {
			break // gap or stale: later blocks in the batch cannot link either
		}
		applied = true
	}
	if !applied {
		return
	}
	mSyncPathBlocks.Inc()
	n.alignReplica()
}
