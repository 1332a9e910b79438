package node

import (
	"errors"
	"fmt"
	"time"

	"confide/internal/chain"
	"confide/internal/p2p"
	"confide/internal/snapshot"
	"confide/internal/storage"
	"confide/internal/storage/vfs"
)

// Snapshot fast-sync. Block catch-up (consensus fetching committed blocks
// from peers' stores, readCommitted) replays history one block at a time,
// which is the right tool for short gaps but makes a wiped or long-offline
// node replay from genesis — and stops working entirely once peers prune old
// payloads. This layer is the long-gap path: exporting nodes announce their
// latest checkpoint height every SyncInterval; a node at least one checkpoint
// interval behind requests a manifest (rotating across announcing peers),
// streams that manifest's chunks in parallel from its origin (each chunk
// verified against its content address the moment it arrives, with retries,
// backoff and per-peer scoring on bad data), atomically installs the verified
// state, and then replays only the tail above the checkpoint through block
// catch-up.

const (
	snapAnnounceTopic     = "confide/snap/announce"      // Uint(checkpoint height)
	snapManifestReqTopic  = "confide/snap/manifest/req"  // Uint(min height wanted)
	snapManifestRespTopic = "confide/snap/manifest/resp" // Manifest.Encode()
	snapChunkReqTopic     = "confide/snap/chunk/req"     // List(height, index)
	snapChunkRespTopic    = "confide/snap/chunk/resp"    // List(height, index, chunk)
)

const (
	// snapMaxAttempts bounds fetch tries per chunk before the session aborts.
	snapMaxAttempts = 6
	// snapBadPeerScore is the badness at which a peer stops being selected
	// while any alternative exists.
	snapBadPeerScore = 3
	// snapFetchWorkers bounds parallel chunk fetches during fast-sync.
	snapFetchWorkers = 4
)

// snapFetchSession tracks one in-flight snapshot fetch. Fields after the
// manifest arrives are guarded by Node.snapMu; arrived channels are closed
// (once) by the chunk-response handler to wake waiting workers.
//
// Chunks are requested only from the manifest's origin: sealed state is
// authenticated encryption with per-replica randomness, so two honest peers
// hold different ciphertext bytes for the same plaintext state and only the
// origin can serve chunks matching its manifest's content addresses. Source
// diversity lives one level up — any announcing peer can serve a manifest
// (the MAC key is quorum-shared), and manifest requests rotate across them,
// skipping peers that previously served bad data.
type snapFetchSession struct {
	target   uint64 // checkpoint height being fetched
	started  time.Time
	manifest *snapshot.Manifest
	origin   p2p.NodeID // peer whose manifest was adopted; sole chunk source
	chunks   [][]byte
	arrived  []chan struct{}
	peers    []p2p.NodeID // peers known to hold this checkpoint
	manReq   time.Time    // last manifest request (re-request pacing)
	manReqs  int          // manifest requests sent (rotation cursor)
}

// startSnapshotSync subscribes the snapshot topics and, when this node
// exports checkpoints, starts announcing them.
func (n *Node) startSnapshotSync() {
	n.endpoint.Subscribe(snapAnnounceTopic, n.onSnapAnnounce)
	n.endpoint.Subscribe(snapManifestReqTopic, n.onSnapManifestReq)
	n.endpoint.Subscribe(snapManifestRespTopic, n.onSnapManifestResp)
	n.endpoint.Subscribe(snapChunkReqTopic, n.onSnapChunkReq)
	n.endpoint.Subscribe(snapChunkRespTopic, n.onSnapChunkResp)
	if n.cfg.CheckpointInterval > 0 {
		n.spawn(n.announceLoop)
	}
}

// announceLoop broadcasts the latest exported checkpoint height every
// SyncInterval.
func (n *Node) announceLoop() {
	ticker := time.NewTicker(n.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			if h := n.snapshots.LatestHeight(); h > 0 {
				n.endpoint.Broadcast(snapAnnounceTopic, chain.Encode(chain.Uint(h)))
			}
		}
	}
}

// onSnapAnnounce reacts to a peer's checkpoint announcement: when the
// checkpoint is at least one full interval ahead of the local tip, block
// replay would cross a whole checkpoint of history, so the snapshot path is
// chosen and the peer's manifest requested.
func (n *Node) onSnapAnnounce(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || it.IsList {
		return
	}
	peerCkpt, err := it.AsUint()
	if err != nil || peerCkpt == 0 {
		return
	}
	interval := n.cfg.CheckpointInterval
	if interval == 0 {
		return // checkpoints disabled locally: keep the block-replay path
	}
	// readCommitted serves nothing below the same threshold.
	if height := n.Height(); peerCkpt <= height || peerCkpt-height < interval {
		return // within one checkpoint of the tip: tail replay is cheaper
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if s := n.snapFetch; s != nil {
		// A session exists: remember this peer as an alternative manifest
		// source; re-request (rotating across known sources) if the current
		// ask has gone unanswered.
		if peerCkpt >= s.target {
			s.addPeer(m.From)
		}
		if s.manifest == nil && time.Since(s.manReq) > 4*n.cfg.SyncInterval {
			s.manReq = time.Now()
			if peer, ok := n.pickPeerLocked(s, s.manReqs); ok {
				s.manReqs++
				n.endpoint.Send(peer, snapManifestReqTopic, chain.Encode(chain.Uint(s.target)))
			}
		}
		return
	}
	n.snapFetch = &snapFetchSession{
		target:  peerCkpt,
		started: time.Now(),
		peers:   []p2p.NodeID{m.From},
		manReq:  time.Now(),
		manReqs: 1,
	}
	n.endpoint.Send(m.From, snapManifestReqTopic, chain.Encode(chain.Uint(peerCkpt)))
}

func (s *snapFetchSession) addPeer(id p2p.NodeID) {
	for _, p := range s.peers {
		if p == id {
			return
		}
	}
	s.peers = append(s.peers, id)
}

// onSnapManifestReq serves the latest checkpoint's manifest when it is at
// least as fresh as the requested height.
func (n *Node) onSnapManifestReq(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || it.IsList {
		return
	}
	want, err := it.AsUint()
	if err != nil {
		return
	}
	cp := n.snapshots.Latest()
	if cp == nil || cp.Manifest.Height < want {
		return
	}
	n.endpoint.Send(m.From, snapManifestRespTopic, cp.Manifest.Encode())
}

// onSnapManifestResp authenticates an incoming manifest and, if it is the
// one the active session is waiting for, launches the chunk fetch.
func (n *Node) onSnapManifestResp(m p2p.Message) {
	man, err := snapshot.DecodeManifest(m.Data)
	if err != nil {
		n.scorePeer(m.From)
		return
	}
	// Authenticate before anything else: the MAC binds height, tip, root,
	// epoch and chunk list to an enclave holding k_states; the root must
	// also commit to the chunk-hash list actually present. The MAC key
	// derives from the manifest's declared epoch — a rejoining node may be
	// behind the exporter's epoch, and the ring derives forward keys from
	// the ratchet without advancing.
	macKey, ok := n.snapshotMACKey(man)
	if !ok || man.VerifyMAC(macKey) != nil ||
		snapshot.ComputeRoot(man.ChunkHashes) != man.StateRoot {
		mSnapBadManifests.Inc()
		n.scorePeer(m.From)
		return
	}
	if man.Height <= n.Height() {
		n.clearFetchSession(man.Height)
		return
	}
	n.snapMu.Lock()
	s := n.snapFetch
	if s == nil || s.manifest != nil || man.Height < s.target {
		n.snapMu.Unlock()
		return
	}
	s.target = man.Height
	s.manifest = man
	s.origin = m.From
	s.chunks = make([][]byte, len(man.ChunkHashes))
	s.arrived = make([]chan struct{}, len(man.ChunkHashes))
	for i := range s.arrived {
		s.arrived[i] = make(chan struct{})
	}
	s.addPeer(m.From)
	n.snapMu.Unlock()
	n.spawn(func() { n.runSnapshotFetch(s) })
}

// snapshotMACKey resolves the MAC key for a manifest's declared epoch. On a
// keyed (confidential) deployment an epoch-less or underivable-epoch
// manifest is rejected outright (ok=false): falling back to a nil key would
// let an unauthenticated manifest pass VerifyMAC. A key-less deployment
// accepts only unauthenticated manifests, as before.
func (n *Node) snapshotMACKey(man *snapshot.Manifest) ([]byte, bool) {
	if n.confEngine.CurrentEpoch() == 0 {
		return nil, true
	}
	key := n.confEngine.CheckpointMACKeyFor(man.Epoch)
	return key, key != nil
}

// onSnapChunkReq serves one chunk of the retained checkpoint.
func (n *Node) onSnapChunkReq(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || !it.IsList || len(it.List) != 2 {
		return
	}
	height, err1 := it.List[0].AsUint()
	index, err2 := it.List[1].AsUint()
	if err1 != nil || err2 != nil {
		return
	}
	data := n.snapshots.Chunk(height, int(index))
	if data == nil {
		return
	}
	n.endpoint.Send(m.From, snapChunkRespTopic, chain.Encode(chain.List(
		chain.Uint(height), chain.Uint(index), chain.Bytes(data))))
}

// onSnapChunkResp verifies an arriving chunk against its content address
// and hands it to the waiting session. A hash mismatch scores the sender
// and leaves the slot empty for a retry from another peer.
func (n *Node) onSnapChunkResp(m p2p.Message) {
	it, err := chain.Decode(m.Data)
	if err != nil || !it.IsList || len(it.List) != 3 {
		n.scorePeer(m.From)
		return
	}
	height, err1 := it.List[0].AsUint()
	index, err2 := it.List[1].AsUint()
	if err1 != nil || err2 != nil {
		return
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	s := n.snapFetch
	if s == nil || s.manifest == nil || s.manifest.Height != height ||
		index >= uint64(len(s.chunks)) || s.chunks[index] != nil {
		return
	}
	data := it.List[2].Str
	if s.manifest.VerifyChunk(int(index), data) != nil {
		mSnapBadChunks.Inc()
		n.badPeers[m.From]++
		return
	}
	s.chunks[index] = append([]byte(nil), data...)
	close(s.arrived[index])
}

// scorePeer records a protocol violation (garbage or inauthentic payload)
// against a peer for source selection.
func (n *Node) scorePeer(id p2p.NodeID) {
	n.snapMu.Lock()
	n.badPeers[id]++
	n.snapMu.Unlock()
}

// pickPeerLocked chooses a manifest source for an attempt: round-robin
// across the session's announcing peers, skipping peers that have served bad
// data unless no clean peer remains. Caller holds snapMu.
func (n *Node) pickPeerLocked(s *snapFetchSession, attempt int) (p2p.NodeID, bool) {
	if len(s.peers) == 0 {
		return 0, false
	}
	for off := 0; off < len(s.peers); off++ {
		id := s.peers[(attempt+off)%len(s.peers)]
		if n.badPeers[id] < snapBadPeerScore {
			return id, true
		}
	}
	return s.peers[attempt%len(s.peers)], true
}

// clearFetchSession drops the active session if it targets height (or any
// older checkpoint).
func (n *Node) clearFetchSession(height uint64) {
	n.snapMu.Lock()
	if n.snapFetch != nil && n.snapFetch.target <= height {
		n.snapFetch = nil
	}
	n.snapMu.Unlock()
}

// runSnapshotFetch streams every chunk of the session's manifest with
// bounded parallelism, then installs the verified checkpoint. Runs on its
// own goroutine; request/wait/retry per chunk, exponential backoff, peer
// rotation on timeout and on bad data.
func (n *Node) runSnapshotFetch(s *snapFetchSession) {
	man := s.manifest
	total := len(man.ChunkHashes)
	work := make(chan int, total)
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)

	workers := min(snapFetchWorkers, total)
	failed := make(chan struct{})
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for idx := range work {
				if !n.fetchChunk(s, idx, failed) {
					select {
					case <-failed:
					default:
						close(failed)
					}
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}

	select {
	case <-failed:
		n.clearFetchSession(man.Height)
		return
	default:
	}
	n.snapMu.Lock()
	chunks := s.chunks
	n.snapMu.Unlock()
	if n.installSnapshot(man, chunks) {
		mSnapSyncSeconds.ObserveSince(s.started)
	}
	n.clearFetchSession(man.Height)
}

// fetchChunk requests one chunk from the manifest's origin until it arrives
// verified or attempts run out (only the origin holds the ciphertext bytes
// the manifest's content addresses commit to; see snapFetchSession). Returns
// false to abort the whole session — a fresh session can then adopt a
// different peer's manifest.
func (n *Node) fetchChunk(s *snapFetchSession, idx int, failed <-chan struct{}) bool {
	timeout := 2 * n.cfg.SyncInterval
	for attempt := 0; attempt < snapMaxAttempts; attempt++ {
		if attempt > 0 {
			mSnapFetchRetries.Inc()
		}
		n.endpoint.Send(s.origin, snapChunkReqTopic, chain.Encode(chain.List(
			chain.Uint(s.manifest.Height), chain.Uint(uint64(idx)))))
		timer := time.NewTimer(timeout)
		select {
		case <-s.arrived[idx]:
			timer.Stop()
			return true
		case <-failed:
			timer.Stop()
			return false
		case <-n.stop:
			timer.Stop()
			return false
		case <-timer.C:
			// Lost request, lost response, or a bad chunk that was
			// discarded on arrival: back off and rotate to the next peer.
			timeout += timeout / 2
		}
	}
	return false
}

// installSnapshot atomically adopts a verified checkpoint: the store gains
// the full sealed state, the base marker records the new chain start, the
// engines drop stale cached plaintext, and consensus fast-forwards so the
// node rejoins ordering at the live tip. The block tail above the
// checkpoint arrives through block catch-up.
func (n *Node) installSnapshot(man *snapshot.Manifest, chunks [][]byte) bool {
	n.applyMu.Lock()
	if man.Height <= n.Height() {
		n.applyMu.Unlock()
		return false // the chain caught up past the checkpoint while fetching
	}
	macKey, ok := n.snapshotMACKey(man)
	if !ok {
		mSnapInstallFailures.Inc()
		n.applyMu.Unlock()
		return false
	}
	if err := snapshot.Install(n.store, man, chunks, macKey); err != nil {
		mSnapInstallFailures.Inc()
		n.applyMu.Unlock()
		return false
	}
	if n.crashHit(vfs.CrashCheckpointInstall) {
		n.applyMu.Unlock()
		return false
	}
	// Commit the install: the base marker and the removal of the in-progress
	// marker land in one atomic batch, so recovery sees either "installing"
	// (quarantine) or a complete, committed install — never a half-adopted
	// checkpoint.
	commit := &storage.Batch{}
	commit.Put(metaBaseKey, encodeStoreBase(man.Height, man.TipHash))
	if seq, found, err := n.store.Get(seqTipKey); err == nil && found {
		commit.Put(blockSeqKey(man.Height-1), seq) // where ordering resumes
	}
	commit.Delete(snapshot.InstallingKey)
	if err := n.store.WriteBatch(commit); err != nil {
		if !errors.Is(err, storage.ErrClosed) {
			n.fatalStore(fmt.Errorf("snapshot install commit: %w", err))
		}
		n.applyMu.Unlock()
		return false
	}
	// The installed state carries the chain's epoch markers (ke/ keys ride
	// in the snapshot); bring the engine ring and the pending schedule in
	// line before any post-install block executes. A rejoin across a
	// rotation boundary ratchets the ring forward here.
	n.adoptEpochState()
	n.setTip(man.Height, man.TipHash)
	// Snapshot writes bypassed the engines; their read caches are stale.
	// Invalidate before releasing applyMu so the next block execution can
	// only see post-install state.
	n.confEngine.InvalidateStateCache()
	n.pubEngine.InvalidateStateCache()
	n.applyMu.Unlock()
	// Fast-forward consensus after releasing applyMu: AdvanceTo delivers any
	// commits queued above the checkpoint, and the executor applying them
	// takes applyMu itself.
	n.alignReplica()
	mSyncPathSnapshot.Inc()
	mSnapInstallHeight.Set(int64(man.Height))
	return true
}
