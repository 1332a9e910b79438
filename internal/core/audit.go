package core

import (
	"fmt"

	"confide/internal/chain"
)

// AuditStatus reports one sealed-state audit's coverage.
type AuditStatus struct {
	// Contracts counts contract-code records inspected (public included).
	Contracts int
	// Opened counts sealed records (confidential code + state) decrypted
	// and authenticated end-to-end.
	Opened int
}

// AuditSealedState re-verifies every sealed record in the store: each
// confidential contract's code and every state record under it is opened
// through the SDM (AEAD authentication against its address-bound AAD and
// epoch key). Any record that fails to open — a bit of silent disk
// corruption that slipped past the storage checksums, a record sealed under
// an epoch this enclave no longer holds, a mismatched AAD after a botched
// recovery — fails the audit.
//
// This is the post-crash certification primitive: after a node restarts
// from a crash (or rebuilds from a snapshot), a clean audit proves the
// D-Protocol's sealed state survived intact. It is a visitor over the walk the
// reseal sweep uses (SDM.walkSealed), so it audits exactly the records the
// engine would ever open.
func (e *Engine) AuditSealedState() (AuditStatus, error) {
	var st AuditStatus
	open := func(stored, aad []byte) error {
		if _, err := e.sdm.openSealed(stored, aad); err != nil {
			return err
		}
		st.Opened++
		return nil
	}
	err := e.sdm.walkSealed(
		func(_ []byte, addr chain.Address, rec *ContractRecord) error {
			st.Contracts++
			if !rec.Confidential {
				return nil
			}
			return open(rec.Code, codeAAD(addr, rec.Owner, rec.SecVer))
		},
		func(key []byte, _ chain.Address, stored []byte) error {
			return open(stored, key)
		})
	if err != nil {
		return st, fmt.Errorf("core: audit: %w", err)
	}
	return st, nil
}
