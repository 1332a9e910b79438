package core

import (
	"sync/atomic"
	"time"

	"confide/internal/metrics"
)

// Table 1's operations, by the names the paper's table prints. They are also
// the op label of the registry series confide_core_ops_total and
// confide_core_op_seconds.
const (
	OpContractCall = "Contract Call"
	OpGetStorage   = "GetStorage"
	OpSetStorage   = "SetStorage"
	OpTxVerify     = "Transaction Verify"
	OpTxDecrypt    = "Transaction Decryption"
	OpReceiptSeal  = "Receipt Encryption"
	OpStateDecrypt = "State Decryption"
	OpStateEncrypt = "State Encryption"
	OpCodeLoad     = "Code Load"
)

// op indexes Table 1's operations: a Profile's slots and the registry's
// series are arrays over it.
type op uint8

const (
	opContractCall op = iota
	opGetStorage
	opSetStorage
	opTxVerify
	opTxDecrypt
	opReceiptSeal
	opStateDecrypt
	opStateEncrypt
	opCodeLoad
	numOps
)

var opNames = [numOps]string{
	OpContractCall, OpGetStorage, OpSetStorage, OpTxVerify, OpTxDecrypt,
	OpReceiptSeal, OpStateDecrypt, OpStateEncrypt, OpCodeLoad,
}

// SampleEvery is the timing stride: each operation times its own
// occurrences 0, 61, 122, … since the last Reset, about one in 64, and no
// other. A count picks them, not a random draw, so a replayed run times the
// same calls, and the first occurrence after a Reset is always timed. The
// stride is prime so that it cannot lock onto a period of the workload: a
// stride of 64 timed only the first envelope open of every 64-transaction
// block, the slowest of the block, and put the benchmark's
// core.op_tx_decrypt_us at 4–8 times its mean.
const SampleEvery = 61

// Profile is one engine's view of Table 1: per operation, the exact count
// and the durations of its sampled occurrences, in fixed atomic slots. Every
// occurrence also adds to the process-wide series (metrics.go), as
// tee.Enclave's crossings do, and those are what operators and benchmarks
// read. Counting here ignores the registry switch, because tests assert
// counts; timing respects it. The per-engine view stays only for the
// benchmark's replay and the per-replica tests (ROADMAP item 24 retires it).
type Profile struct {
	slots [numOps]opSlot
}

type opSlot struct {
	count   atomic.Uint64 // occurrences since Reset
	samples atomic.Uint64 // occurrences timed
	nanos   atomic.Int64  // their summed duration
}

// ProfileEntry is one operation's totals: its exact count, and its duration
// estimated as count × the sampled occurrences' mean.
type ProfileEntry struct {
	Count    uint64
	Duration time.Duration
}

// opTimer is one occurrence in flight; a zero start means it is not timed.
type opTimer struct {
	p     *Profile
	op    op
	start time.Time
}

// begin counts one occurrence of o and reads the clock only when the
// occurrence is sampled and the registry records. Pair it with end, usually
// as `defer p.begin(o).end()`.
func (p *Profile) begin(o op) opTimer {
	mOps[o].Inc()
	t := opTimer{p: p, op: o}
	if (p.slots[o].count.Add(1)-1)%SampleEvery == 0 && metrics.Default().Enabled() {
		t.start = time.Now()
	}
	return t
}

// end records a sampled occurrence's duration.
func (t opTimer) end() {
	if t.start.IsZero() {
		return
	}
	d := time.Since(t.start)
	s := &t.p.slots[t.op]
	s.samples.Add(1)
	s.nanos.Add(int64(d))
	mOpSeconds[t.op].Observe(d.Seconds())
}

// Snapshot returns the operations counted since the last Reset, by name.
func (p *Profile) Snapshot() map[string]ProfileEntry {
	out := make(map[string]ProfileEntry, numOps)
	for o := range p.slots {
		s := &p.slots[o]
		n := s.count.Load()
		if n == 0 {
			continue
		}
		e := ProfileEntry{Count: n}
		if k := s.samples.Load(); k > 0 {
			e.Duration = time.Duration(float64(s.nanos.Load()) / float64(k) * float64(n))
		}
		out[opNames[o]] = e
	}
	return out
}

// Reset zeroes every slot, occurrence counts included, so the next
// occurrence of each operation is timed.
func (p *Profile) Reset() {
	for o := range p.slots {
		s := &p.slots[o]
		s.count.Store(0)
		s.samples.Store(0)
		s.nanos.Store(0)
	}
}
