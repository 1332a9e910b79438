package core

import (
	"errors"
	"time"

	"confide/internal/chain"
	"confide/internal/keyepoch"
)

// The pre-processor's three steps (Figure 7: P2–P3, and C1–C3 on a cache
// miss), each written once: PreVerifyBatch runs gate → open → check, Execute
// puts its cache shortcuts between them, receipt access runs the open alone.

// epochGate is step one for a confidential transaction. The epoch tag is
// public bytes, so the window check runs before any decryption and every
// replica refuses a stale envelope identically; an engine without a ring has
// no window and refuses here too.
func (e *Engine) epochGate(payload []byte) (epoch uint64, env []byte, err error) {
	if e.ring == nil {
		return 0, nil, errors.New("core: confidential transaction on public engine")
	}
	epoch, env, err = keyepoch.ParseEnvelope(payload)
	if err != nil {
		return 0, nil, err
	}
	if !e.ring.Accepts(epoch) {
		keyepoch.RecordStaleRejection()
		return 0, nil, keyepoch.ErrStaleEpoch
	}
	return epoch, env, nil
}

// openEnvelope is step two: the T-Protocol private-key open under the epoch's
// sk_tx, yielding Tx_raw (decoded, and as the bytes that were sealed) and the
// one-time key k_tx. Any epoch the ring still retains opens; whether it is
// acceptable is the gate's question.
func (e *Engine) openEnvelope(epoch uint64, env []byte) (raw *chain.RawTx, ktx, body []byte, err error) {
	sk, err := e.ring.Envelope(epoch)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	ktx, body, err = sk.OpenEnvelope(env)
	e.profile.Record(OpTxDecrypt, time.Since(start))
	if err != nil {
		return nil, nil, nil, err
	}
	raw, err = chain.DecodeRawTx(body)
	return raw, ktx, body, err
}

// checkSignature is step three, for public and confidential transactions
// alike: the account signature over Tx_raw, and that the key it verifies
// under is the sender's.
func (e *Engine) checkSignature(raw *chain.RawTx) error {
	defer e.profileSince(OpTxVerify, time.Now())
	return raw.VerifySignature()
}
