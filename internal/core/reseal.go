package core

import (
	"fmt"

	"confide/internal/chain"
	"confide/internal/keyepoch"
	"confide/internal/storage"
	"confide/internal/tee"
)

// Lazy re-sealing. Rotation does not rewrite the sealed state synchronously
// — that would stall the chain for the whole database. Instead every write
// seals under the current epoch (sealWrites/storeContract already do), and
// this sweep migrates the cold remainder in rate-limited slices, so old
// epochs drain to zero and their keys can be zeroized. The epoch tag on
// each record makes "is this stale?" a header inspection, no decryption.

// ResealStatus reports one sweep's outcome.
type ResealStatus struct {
	// Scanned counts sealed (confidential) records inspected.
	Scanned int
	// Resealed counts records migrated to the current epoch this sweep.
	Resealed int
	// Stale counts old-epoch records left behind because the budget ran
	// out; a later sweep picks them up.
	Stale int
	// Done is true when a full scan completed and no stale record remains:
	// the retired epochs are drained and safe to zeroize.
	Done bool
}

// ResealSweep scans the sealed store and re-seals up to budget old-epoch
// records under the current epoch's k_states (budget <= 0 means unlimited).
// The caller must hold the chain quiescent or serialized against block
// commits (the node runs sweeps under its apply lock).
func (e *Engine) ResealSweep(budget int) (ResealStatus, error) {
	var st ResealStatus
	if e.ring == nil || !e.StaleEpochsRetained() {
		st.Done = true
		return st, nil
	}
	current := e.ring.Current()

	type update struct{ key, value []byte }
	var updates []update
	var forget [][]byte
	remaining := budget

	// reseal migrates one stored record if it is stale and budget remains.
	reseal := func(stored []byte, aad []byte) ([]byte, bool, error) {
		epoch, _, err := keyepoch.ParseRecord(stored)
		if err != nil {
			return nil, false, err
		}
		st.Scanned++
		if epoch >= current {
			return nil, false, nil
		}
		if budget > 0 && remaining <= 0 {
			st.Stale++
			return nil, false, nil
		}
		plain, err := e.sdm.openSealed(stored, aad)
		if err != nil {
			return nil, false, err
		}
		sealed, err := e.sdm.sealRecord(plain, aad)
		if err != nil {
			return nil, false, err
		}
		if budget > 0 {
			remaining--
		}
		st.Resealed++
		return sealed, true, nil
	}

	// Code records, then state records. The SDM caches code records as raw
	// stored bytes — forget the re-sealed ones so reads pick up the new
	// ciphertext, not a stale copy; state cache entries hold plaintext, which
	// re-sealing does not change.
	err := e.sdm.walkSealed(
		func(key []byte, addr chain.Address, rec *ContractRecord) error {
			if !rec.Confidential {
				return nil
			}
			sealed, changed, err := reseal(rec.Code, codeAAD(addr, rec.Owner, rec.SecVer))
			if err != nil || !changed {
				return err
			}
			out := *rec
			out.Code = sealed
			key = append([]byte(nil), key...)
			updates = append(updates, update{key: key, value: encodeRecord(&out)})
			forget = append(forget, key)
			return nil
		},
		func(key []byte, _ chain.Address, stored []byte) error {
			sealed, changed, err := reseal(stored, key)
			if err != nil || !changed {
				return err
			}
			updates = append(updates, update{key: append([]byte(nil), key...), value: sealed})
			return nil
		})
	if err != nil {
		return st, fmt.Errorf("core: reseal: %w", err)
	}

	if len(updates) > 0 {
		var batch storage.Batch
		bytes := 0
		for _, u := range updates {
			batch.Put(u.key, u.value)
			bytes += len(u.key) + len(u.value)
		}
		// The migrated slice leaves the enclave in one ocall.
		if oerr := e.enclave.Ocall(bytes, tee.UserCheck, func() error { return nil }); oerr != nil {
			return st, oerr
		}
		if werr := e.sdm.store.WriteBatch(&batch); werr != nil {
			return st, werr
		}
		e.sdm.forget(forget...)
		keyepoch.RecordResealed(st.Resealed)
	}
	st.Done = st.Stale == 0
	return st, nil
}
