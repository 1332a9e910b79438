// Package tee is a software simulation of the Trusted Execution Environment
// (Intel SGX) that CONFIDE runs on in production. It reproduces the
// *observable cost structure* of SGX rather than its microarchitecture:
//
//   - an explicit ecall/ocall boundary with per-transition cycle costs
//     (the paper cites 8,314–14,160 cycles per ocall, ≈3–4 µs at 3.7 GHz),
//   - copy-and-check marshalling cost for pointer arguments, skippable with
//     the EDL "user_check" flag,
//   - a bounded Enclave Page Cache (EPC) with encrypt-evict/decrypt-reload
//     page-swap costs when the budget is exceeded,
//   - enclave measurement and attestation rooted in a software
//     "manufacturer" key instead of hardware fuses,
//   - a lock-free-style exit-less call ring buffer for the monitor system.
//
// Costs are always accounted (visible in Stats); wall-clock injection of the
// same costs is optional, so unit tests run fast while benchmarks reproduce
// the paper's latency shapes.
package tee

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The simulated hardware cost parameters, calibrated to the numbers the paper
// cites for its Xeon E3-1240 v6 testbed.
const (
	// cpuGHz converts cycle charges into nanoseconds.
	cpuGHz = 3.7
	// ecallCycles / ocallCycles are charged per boundary crossing. The
	// paper's ocall range is 8,314 (cache hit) to 14,160 (miss), charged at
	// its midpoint (HotCalls); sgx-perf: ecalls cost slightly less.
	ecallCycles = 8600
	ocallCycles = 11237
	// copyCyclesPerByte models the proxy/bridge copy-and-check of [in]/[out]
	// EDL pointers. user_check transfers skip it.
	copyCyclesPerByte = 0.35
	// pageSwapCycles is charged per 4 KiB EPC page evicted or reloaded
	// (encrypt + copy + EWB bookkeeping, ~11 µs).
	pageSwapCycles = 40000
)

// PageSize is the EPC page granularity.
const PageSize = 4096

// Config configures one enclave instance.
type Config struct {
	// CodeIdentity feeds the enclave measurement; two enclaves built from
	// the same code identity have the same measurement.
	CodeIdentity string
	// EPCPages bounds resident enclave memory. 0 means the SGX v1 default
	// budget (93.5 MiB of usable EPC).
	EPCPages int
	// InjectDelays makes every charged cycle cost also consume wall-clock
	// time (spin wait), so end-to-end benchmarks feel the TEE tax.
	InjectDelays bool
}

// DefaultEPCPages is the usable SGX v1 EPC budget (93.5 MiB) in pages.
const DefaultEPCPages = 23936 // 93.5 MiB / 4 KiB

// Stats aggregates the costs an enclave has accrued. All fields are
// monotonic counters safe for concurrent reads.
type Stats struct {
	Ecalls        uint64
	Ocalls        uint64
	BytesCopied   uint64
	PageSwaps     uint64
	ChargedCycles uint64
}

// Enclave is one simulated SGX enclave.
type Enclave struct {
	name        string
	measurement [32]byte
	cfg         Config
	platform    *Platform
	destroyed   atomic.Bool

	ecalls      atomic.Uint64
	ocalls      atomic.Uint64
	bytesCopied atomic.Uint64
	pageSwaps   atomic.Uint64
	cycles      atomic.Uint64

	mu            sync.Mutex
	residentPages int
	pool          *MemPool
}

// ErrDestroyed is returned by operations on a destroyed enclave.
var ErrDestroyed = errors.New("tee: enclave destroyed")

// Platform models one physical machine: it owns the local-attestation
// platform secret shared by enclaves on the same host, and knows the
// manufacturer root that signs remote-attestation reports.
type Platform struct {
	localKey [32]byte
	root     *RootOfTrust
	mu       sync.Mutex
	enclaves map[string]*Enclave
}

// NewPlatform creates a platform bound to the given manufacturer root.
func NewPlatform(root *RootOfTrust) *Platform {
	p := &Platform{root: root, enclaves: make(map[string]*Enclave)}
	copy(p.localKey[:], root.deriveLocalKey())
	return p
}

// CreateEnclave launches and measures an enclave on this platform.
func (p *Platform) CreateEnclave(name string, cfg Config) (*Enclave, error) {
	if cfg.CodeIdentity == "" {
		return nil, errors.New("tee: enclave needs a code identity")
	}
	if cfg.EPCPages == 0 {
		cfg.EPCPages = DefaultEPCPages
	}
	e := &Enclave{
		name:        name,
		measurement: sha256.Sum256([]byte("enclave-code:" + cfg.CodeIdentity)),
		cfg:         cfg,
		platform:    p,
	}
	e.pool = NewMemPool(e)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.enclaves[name]; dup {
		return nil, fmt.Errorf("tee: enclave %q already exists on platform", name)
	}
	p.enclaves[name] = e
	return e, nil
}

// Name returns the enclave's instance name.
func (e *Enclave) Name() string { return e.name }

// Measurement returns the enclave's code measurement (MRENCLAVE analogue).
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// Stats returns a snapshot of accrued costs.
func (e *Enclave) Stats() Stats {
	return Stats{
		Ecalls:        e.ecalls.Load(),
		Ocalls:        e.ocalls.Load(),
		BytesCopied:   e.bytesCopied.Load(),
		PageSwaps:     e.pageSwaps.Load(),
		ChargedCycles: e.cycles.Load(),
	}
}

// Destroy tears the enclave down, releasing all EPC pages. The paper's KM
// Enclave is destroyed as soon as key provisioning finishes to return EPC
// to the contract-service enclave.
func (e *Enclave) Destroy() {
	e.destroyed.Store(true)
	e.mu.Lock()
	mEPCResident.Add(-int64(e.residentPages))
	e.residentPages = 0
	e.mu.Unlock()
	e.platform.mu.Lock()
	delete(e.platform.enclaves, e.name)
	e.platform.mu.Unlock()
}

// Destroyed reports whether Destroy has been called.
func (e *Enclave) Destroyed() bool { return e.destroyed.Load() }

// chargeCycles records (and optionally injects) a cycle cost.
func (e *Enclave) chargeCycles(c uint64) {
	e.cycles.Add(c)
	mCycles.Add(c)
	if e.cfg.InjectDelays && c > 0 {
		spin(time.Duration(float64(c) / cpuGHz))
	}
}

// spin burns wall-clock time without sleeping, to model sub-scheduler-qunatum
// hardware stalls at microsecond granularity.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TransferFlag describes how a boundary call's buffer arguments are
// marshalled, mirroring the EDL [in]/[out]/user_check annotations.
type TransferFlag int

const (
	// CopyInOut marshals buffers with the generated proxy's copy-and-check.
	CopyInOut TransferFlag = iota
	// UserCheck skips marshalling; the caller guarantees memory safety.
	UserCheck
)

// Ecall enters the enclave, charging the transition and (unless flag is
// UserCheck) the copy-and-check cost for argBytes of pointer arguments, then
// runs fn "inside" the enclave. On a nil enclave — the public engine's, which
// has no boundary to cross — Ecall and Ocall just run fn.
func (e *Enclave) Ecall(argBytes int, flag TransferFlag, fn func() error) error {
	return e.cross(false, argBytes, flag, fn)
}

// Ocall leaves the enclave to run fn in the untrusted host, with the same
// cost accounting as Ecall.
func (e *Enclave) Ocall(argBytes int, flag TransferFlag, fn func() error) error {
	return e.cross(true, argBytes, flag, fn)
}

// cross is one boundary transition, out of the enclave or into it.
func (e *Enclave) cross(out bool, argBytes int, flag TransferFlag, fn func() error) error {
	if e == nil {
		return fn()
	}
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	cost := uint64(ecallCycles)
	if out {
		cost = ocallCycles
		e.ocalls.Add(1)
		mOcalls.Inc()
	} else {
		e.ecalls.Add(1)
		mEcalls.Inc()
	}
	if flag == CopyInOut && argBytes > 0 {
		e.bytesCopied.Add(uint64(argBytes))
		mBytesCopied.Add(uint64(argBytes))
		cost += uint64(float64(argBytes) * copyCyclesPerByte)
	}
	e.chargeCycles(cost)
	return fn()
}

// Alloc reserves n bytes of enclave heap. If the resident set exceeds the
// EPC budget, victim pages are swapped out (encrypt + evict), charging
// PageSwapCycles each — the transparent but expensive paging the paper's
// memory-management optimizations exist to avoid.
func (e *Enclave) Alloc(n int) error {
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	if n < 0 {
		return errors.New("tee: negative allocation")
	}
	pages := (n + PageSize - 1) / PageSize
	e.mu.Lock()
	before := e.residentPages
	e.residentPages += pages
	over := e.residentPages - e.cfg.EPCPages
	if over > 0 {
		// Victims are evicted to untrusted memory; the resident set is
		// clamped to the budget.
		e.residentPages = e.cfg.EPCPages
	}
	mEPCResident.Add(int64(e.residentPages - before))
	e.mu.Unlock()
	if over > 0 {
		e.pageSwaps.Add(uint64(over))
		mPageSwaps.Add(uint64(over))
		e.chargeCycles(uint64(over) * pageSwapCycles)
	}
	return nil
}

// Free releases n bytes of enclave heap.
func (e *Enclave) Free(n int) {
	pages := (n + PageSize - 1) / PageSize
	e.mu.Lock()
	before := e.residentPages
	e.residentPages -= pages
	if e.residentPages < 0 {
		e.residentPages = 0
	}
	mEPCResident.Add(int64(e.residentPages - before))
	e.mu.Unlock()
}

// ResidentPages reports the current EPC resident set.
func (e *Enclave) ResidentPages() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.residentPages
}

// Pool returns the enclave's internal memory pool (OPT1: reduced
// fragmentation and fewer EPC allocations).
func (e *Enclave) Pool() *MemPool { return e.pool }

// localMAC computes the platform-local attestation MAC over a message.
func (p *Platform) localMAC(msg []byte) [32]byte {
	mac := hmac.New(sha256.New, p.localKey[:])
	mac.Write(msg)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}
