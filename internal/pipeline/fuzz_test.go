package pipeline

import (
	"encoding/binary"
	"testing"

	"confide/internal/chain"
)

// FuzzScheduler drives the scheduler through arbitrary interleavings of
// propose (Predict+Track), deliver in order, deliver past a lost slot,
// apply-predicted, apply-foreign, view-change and tip-jump events — the
// delivered-vs-predicted permutations the abort/re-pool path must survive —
// and checks the no-loss invariant:
// every transaction ever tracked ends the run in exactly one of three
// states — committed (its block applied as predicted), returned by an abort
// for re-pooling, or still in flight. A transaction that vanishes here is
// the PR 5 tx-loss bug reborn; one that appears twice would double-apply
// (the node's execution dedup is the backstop, but the scheduler must not
// lean on it).
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3})
	f.Add([]byte{0, 0, 0, 2, 2, 2})
	f.Add([]byte{0, 4, 0, 3, 0, 1, 2, 5, 0, 2})
	f.Add([]byte{0, 0, 3, 0, 2, 4, 0, 5, 2, 2, 2})
	// The head's consensus slot is lost and the second proposal delivers: the
	// next prediction must fall back to the committed tip.
	f.Add([]byte{0, 0, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		s := NewScheduler()

		// The model chain: a deterministic "real" ledger the scheduler's
		// host would maintain. Block hashes are synthesized from a counter
		// so foreign blocks never collide with predicted ones.
		var (
			view      uint64
			tipHeight uint64 = 100
			tipHash          = synthHash(0xf0, 0)
			nextTxID  uint32 = 1
			nextHash  uint32 = 1
		)
		tracked := map[uint32]bool{}   // every tx ever handed to Track
		committed := map[uint32]bool{} // applied inside a predicted block
		aborted := map[uint32]bool{}   // returned for re-pooling
		// pendingTxs[i] mirrors the scheduler's entries: the txs of each
		// in-flight predicted block, in chain order, with its block hash.
		type pend struct {
			height    uint64
			hash      chain.Hash
			txs       []uint32
			delivered bool
		}
		var pending []pend

		account := func(txs []*chain.Tx) {
			for _, tx := range txs {
				id := binary.LittleEndian.Uint32(tx.Payload)
				if aborted[id] {
					t.Fatalf("tx %d aborted twice", id)
				}
				if committed[id] {
					t.Fatalf("tx %d aborted after committing", id)
				}
				aborted[id] = true
			}
		}
		dropPending := func() {
			pending = nil
		}

		for _, op := range ops {
			switch op % 7 {
			case 0: // propose: Predict + Track a 1-3 tx block
				h, parent, ab := s.Predict(view, tipHeight, tipHash)
				account(ab)
				if len(ab) > 0 {
					dropPending()
				}
				// The prediction must extend either the committed tip or the
				// last in-flight block.
				if len(pending) > 0 {
					last := pending[len(pending)-1]
					if h != last.height+1 || parent != last.hash {
						t.Fatalf("prediction (%d) does not extend in-flight tip (%d)", h, last.height)
					}
				} else if h != tipHeight || parent != tipHash {
					t.Fatalf("prediction (%d, %x) does not extend committed tip (%d, %x)", h, parent[:2], tipHeight, tipHash[:2])
				}
				ntx := 1 + int(op/7)%3
				var ids []uint32
				var txs []*chain.Tx
				for i := 0; i < ntx; i++ {
					id := nextTxID
					nextTxID++
					payload := make([]byte, 4)
					binary.LittleEndian.PutUint32(payload, id)
					txs = append(txs, &chain.Tx{Type: chain.TxTypePublic, Payload: payload})
					ids = append(ids, id)
					tracked[id] = true
				}
				bh := synthHash(0x01, nextHash)
				nextHash++
				s.Track(h, bh, parent, txs)
				pending = append(pending, pend{height: h, hash: bh, txs: ids})
			case 1: // deliver the oldest undelivered predicted block
				for i := range pending {
					if !pending[i].delivered {
						if ab := s.Delivered(pending[i].height, pending[i].hash); len(ab) > 0 {
							t.Fatalf("in-order delivery at %d aborted %d txs", pending[i].height, len(ab))
						}
						pending[i].delivered = true
						break
					}
				}
			case 2: // the predicted head applies for real
				if len(pending) == 0 {
					continue
				}
				head := pending[0]
				ab := s.Applied(head.height, head.hash)
				if len(ab) > 0 {
					t.Fatalf("matching apply at %d aborted %d txs", head.height, len(ab))
				}
				for _, id := range head.txs {
					committed[id] = true
				}
				pending = pending[1:]
				tipHeight = head.height + 1
				tipHash = head.hash
			case 3: // a foreign block applies at the predicted head's height
				fh := synthHash(0x02, nextHash)
				nextHash++
				ab := s.Applied(tipHeight, fh)
				account(ab)
				if len(pending) > 0 && len(ab) == 0 {
					t.Fatalf("foreign block at %d aborted nothing (%d pending)", tipHeight, len(pending))
				}
				dropPending()
				tipHeight++
				tipHash = fh
			case 4: // view change
				view++
			case 5: // tip jump (snapshot install / catch-up far ahead)
				tipHeight += 5
				tipHash = synthHash(0x03, nextHash)
				nextHash++
			case 6: // consensus delivers the newest predicted block while an
				// earlier one never delivered: that one's slot went to another
				// payload, so it and everything chained off it are dead.
				lost := 0
				for lost < len(pending) && pending[lost].delivered {
					lost++
				}
				if lost >= len(pending)-1 {
					continue
				}
				last := pending[len(pending)-1]
				ab := s.Delivered(last.height, last.hash)
				account(ab)
				want := 0
				for _, p := range pending[lost:] {
					want += len(p.txs)
				}
				if len(ab) != want {
					t.Fatalf("delivery past the lost slot at %d aborted %d txs, want the %d chained off it", pending[lost].height, len(ab), want)
				}
				pending = pending[:lost]
			}
		}

		// Drain: a final Predict against a fresh tip aborts everything still
		// in flight, then the books must balance.
		_, _, ab := s.Predict(view+1, tipHeight, tipHash)
		account(ab)
		if d := s.Depth(); d != 0 {
			t.Fatalf("scheduler still holds %d entries after the draining predict", d)
		}
		for id := range tracked {
			if !committed[id] && !aborted[id] {
				t.Fatalf("tx %d lost: neither committed nor returned for re-pooling", id)
			}
		}
	})
}

func synthHash(tag byte, n uint32) chain.Hash {
	var h chain.Hash
	h[0] = tag
	binary.BigEndian.PutUint32(h[1:], n)
	return h
}
