package node

import (
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/keyepoch"
	"confide/internal/storage/vfs"
)

// Key-epoch rotation, node side. A rotation is a governance transaction
// (TYPE=2) carrying keyepoch.Rotation: consensus orders it like any other
// transaction, executing it schedules the rotation (writes the ke/pending
// marker), and when the chain reaches the activation height every replica
// advances its engine ring before executing that block — deterministically,
// because both the schedule and the height are chain state. Two markers
// persist the machine across restarts and ride inside state snapshots:
//
//	ke/epoch   — the epoch the chain has activated (absent = epoch 1)
//	ke/pending — a scheduled rotation not yet activated
var (
	keEpochKey   = []byte("ke/epoch")
	kePendingKey = []byte("ke/pending")
)

// defaultResealRate is the background re-seal budget (records/second) when
// Config.ResealRate is zero.
const defaultResealRate = 2048

// resealTick paces the background sweep; each tick spends a proportional
// slice of the per-second budget.
const resealTick = 50 * time.Millisecond

// adoptEpochState reads the durable epoch markers and brings the engine ring
// and the pending schedule in line with the chain. Runs at construction
// (after recoverChainState) and after a snapshot install, where the markers
// arrive with the snapshot's state chunks. Caller must ensure no concurrent
// block application.
func (n *Node) adoptEpochState() {
	if raw, found, err := n.store.Get(keEpochKey); err == nil && found {
		if it, err := chain.Decode(raw); err == nil && !it.IsList {
			if epoch, err := it.AsUint(); err == nil {
				_ = n.confEngine.AdvanceEpochTo(epoch)
			}
		}
	}
	n.pendingRotation = nil
	if raw, found, err := n.store.Get(kePendingKey); err == nil && found {
		if rot, err := keyepoch.DecodeRotation(raw); err == nil {
			n.pendingRotation = &rot
		}
	}
}

// applyGovernance executes one ordered governance transaction at the given
// block height: the platform applies it directly, no contract VM. Always
// returns a result (governance receipts are public and record rejection as
// a failed status, so every replica writes the identical receipt). Caller
// holds applyMu.
func (n *Node) applyGovernance(tx *chain.Tx, height uint64) *core.ExecResult {
	receipt := &chain.Receipt{TxHash: tx.Hash()}
	fail := func(msg string) *core.ExecResult {
		receipt.Status = chain.ReceiptFailed
		receipt.Output = []byte(msg)
		return core.NewOrderedResult(receipt, nil)
	}
	rot, err := keyepoch.DecodeRotation(tx.Payload)
	if err != nil {
		return fail(err.Error())
	}
	// All conditions check deterministic chain state, so acceptance is
	// identical on every replica.
	switch {
	case n.pendingRotation != nil || n.rotationCandidate != nil:
		return fail("keyepoch: a rotation is already scheduled")
	case rot.NewEpoch != n.confEngine.CurrentEpoch()+1:
		return fail("keyepoch: rotation must target the successor epoch")
	case rot.ActivationHeight <= height:
		return fail("keyepoch: activation height must be in the future")
	}
	n.rotationCandidate = &rot
	receipt.Status = chain.ReceiptOK
	receipt.Output = rot.Encode()
	return core.NewOrderedResult(receipt, map[string][]byte{string(kePendingKey): rot.Encode()})
}

// maybeActivateEpoch advances the engine ring when the block about to
// execute has reached a scheduled activation height, and queues the marker
// flip for the block's atomic batch. Returns the markers to add, or nil.
// Caller holds applyMu.
func (n *Node) maybeActivateEpoch(height uint64) (activated bool) {
	rot := n.pendingRotation
	if rot == nil || height < rot.ActivationHeight {
		return false
	}
	if err := n.confEngine.AdvanceEpochTo(rot.NewEpoch); err != nil {
		// Derivation cannot fail in practice; leave the schedule in place so
		// the next block retries rather than silently diverging.
		return false
	}
	return true
}

// finishEpochTransitions updates the in-memory schedule after a successful
// block commit: an activated rotation is retired and a rotation scheduled in
// this block becomes pending. On a failed commit the candidate is dropped
// (its ke/pending marker never persisted). Caller holds applyMu.
func (n *Node) finishEpochTransitions(committed, activated bool) {
	if !committed {
		n.rotationCandidate = nil
		return
	}
	if activated {
		n.pendingRotation = nil
	}
	if n.rotationCandidate != nil {
		n.pendingRotation = n.rotationCandidate
		n.rotationCandidate = nil
	}
}

// CurrentEpoch reports the confidential engine's active key epoch.
func (n *Node) CurrentEpoch() uint64 { return n.confEngine.CurrentEpoch() }

// PendingRotation returns the scheduled-but-not-activated rotation, if any.
func (n *Node) PendingRotation() *keyepoch.Rotation {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if n.pendingRotation == nil {
		return nil
	}
	rot := *n.pendingRotation
	return &rot
}

// ResealNow runs one re-seal sweep immediately (budget <= 0 = unlimited),
// zeroizing drained epochs on completion. Tests and benchmarks use it to
// drain deterministically instead of waiting out the background loop.
func (n *Node) ResealNow(budget int) (core.ResealStatus, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	status, err := n.confEngine.ResealSweep(budget)
	if err == nil && status.Done {
		n.lastDrained = n.confEngine.CurrentEpoch()
		n.confEngine.ZeroizeDrainedEpochs()
	}
	return status, err
}

// startResealLoop launches the background re-seal sweeper: a rate-limited
// migration of old-epoch sealed records onto the current epoch's key, so
// retired epochs drain to zero and their secrets can be zeroized inside the
// enclave. A negative ResealRate disables it.
func (n *Node) startResealLoop() {
	rate := n.cfg.ResealRate
	if rate < 0 {
		return
	}
	if rate == 0 {
		rate = defaultResealRate
	}
	budget := rate * int(resealTick) / int(time.Second)
	if budget < 1 {
		budget = 1
	}
	n.spawn(func() {
		ticker := time.NewTicker(resealTick)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
			}
			// Cheap pre-checks without the apply lock: nothing to do unless
			// stale epochs exist and the current epoch isn't already drained.
			current := n.confEngine.CurrentEpoch()
			if current == 0 || !n.confEngine.StaleEpochsRetained() {
				continue
			}
			if n.crashHit(vfs.CrashResealSweep) {
				return
			}
			n.applyMu.Lock()
			if n.lastDrained == current {
				n.applyMu.Unlock()
				continue
			}
			status, err := n.confEngine.ResealSweep(budget)
			if err == nil && status.Done {
				n.lastDrained = current
				n.confEngine.ZeroizeDrainedEpochs()
			}
			n.applyMu.Unlock()
		}
	})
}
