package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profile categories used by the engine; Table 1 of the paper reports
// exactly these.
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

// Profile aggregates operation counts and durations; it regenerates the
// paper's Table 1 for any workload.
type Profile struct {
	mu      sync.Mutex
	entries map[string]*ProfileEntry
}

// ProfileEntry is one operation category's totals.
type ProfileEntry struct {
	Count    uint64
	Duration time.Duration
}

// NewProfile creates an empty profile.
func NewProfile() *Profile {
	return &Profile{entries: make(map[string]*ProfileEntry)}
}

// Record adds one operation observation. A nil profile is a no-op, so
// instrumentation can stay unconditional.
func (p *Profile) Record(op string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.entries[op]
	if e == nil {
		e = &ProfileEntry{}
		p.entries[op] = e
	}
	e.Count++
	e.Duration += d
	p.mu.Unlock()
}

// Snapshot returns a copy of all entries.
func (p *Profile) Snapshot() map[string]ProfileEntry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]ProfileEntry, len(p.entries))
	for k, v := range p.entries {
		out[k] = *v
	}
	return out
}

// Reset clears all entries.
func (p *Profile) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.entries = make(map[string]*ProfileEntry)
	p.mu.Unlock()
}

// Table renders the profile in the layout of the paper's Table 1: method,
// total duration, count, and share of total time.
func (p *Profile) Table() string {
	snap := p.Snapshot()
	type row struct {
		name string
		e    ProfileEntry
	}
	rows := make([]row, 0, len(snap))
	var total time.Duration
	for name, e := range snap {
		rows = append(rows, row{name, e})
		total += e.Duration
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].e.Duration > rows[j].e.Duration })
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %8s %7s\n", "Method", "Duration (ms)", "Counts", "Ratio")
	for _, r := range rows {
		ratio := 0.0
		if total > 0 {
			ratio = float64(r.e.Duration) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-24s %14.2f %8d %6.1f%%\n",
			r.name, float64(r.e.Duration)/float64(time.Millisecond), r.e.Count, ratio)
	}
	return b.String()
}
