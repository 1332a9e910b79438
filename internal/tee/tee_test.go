package tee

import (
	"errors"
	"sync"
	"testing"
)

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	root, err := NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	return NewPlatform(root)
}

func TestCreateEnclaveDefaults(t *testing.T) {
	p := newTestPlatform(t)
	e, err := p.CreateEnclave("cs", Config{CodeIdentity: "confide-cs-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.EPCPages != DefaultEPCPages {
		t.Errorf("EPCPages = %d, want default %d", e.cfg.EPCPages, DefaultEPCPages)
	}
}

func TestCreateEnclaveRequiresIdentity(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.CreateEnclave("x", Config{}); err == nil {
		t.Error("empty code identity should be rejected")
	}
}

func TestCreateEnclaveDuplicateName(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.CreateEnclave("km", Config{CodeIdentity: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateEnclave("km", Config{CodeIdentity: "b"}); err == nil {
		t.Error("duplicate enclave name should be rejected")
	}
}

func TestMeasurementDependsOnlyOnCode(t *testing.T) {
	p := newTestPlatform(t)
	a, _ := p.CreateEnclave("a", Config{CodeIdentity: "confide-cs-v1"})
	b, _ := p.CreateEnclave("b", Config{CodeIdentity: "confide-cs-v1"})
	c, _ := p.CreateEnclave("c", Config{CodeIdentity: "confide-cs-v2"})
	if a.Measurement() != b.Measurement() {
		t.Error("same code identity must measure identically")
	}
	if a.Measurement() == c.Measurement() {
		t.Error("different code identity must measure differently")
	}
}

func TestBoundaryCostAccounting(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	if err := e.Ecall(1000, CopyInOut, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Ocall(0, UserCheck, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Ecalls != 1 || st.Ocalls != 1 {
		t.Errorf("transitions = %d/%d, want 1/1", st.Ecalls, st.Ocalls)
	}
	if st.BytesCopied != 1000 {
		t.Errorf("bytes copied = %d, want 1000", st.BytesCopied)
	}
	base := uint64(ecallCycles + ocallCycles)
	if st.ChargedCycles <= base {
		t.Errorf("cycles = %d, want > transition base %d (copy cost missing)", st.ChargedCycles, base)
	}
}

func TestUserCheckSkipsCopyCost(t *testing.T) {
	p := newTestPlatform(t)
	copied, _ := p.CreateEnclave("copied", Config{CodeIdentity: "cs"})
	zeroCopy, _ := p.CreateEnclave("zerocopy", Config{CodeIdentity: "cs"})
	const big = 1 << 20
	copied.Ocall(big, CopyInOut, func() error { return nil })
	zeroCopy.Ocall(big, UserCheck, func() error { return nil })
	if c, z := copied.Stats().ChargedCycles, zeroCopy.Stats().ChargedCycles; c <= z {
		t.Errorf("copy-in-out (%d cycles) should cost more than user_check (%d)", c, z)
	}
	if zeroCopy.Stats().BytesCopied != 0 {
		t.Error("user_check must not count copied bytes")
	}
}

func TestBoundaryPropagatesError(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	boom := errors.New("boom")
	if err := e.Ecall(0, UserCheck, func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestEPCPagingChargesSwaps(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs", EPCPages: 10})
	if err := e.Alloc(8 * PageSize); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PageSwaps; got != 0 {
		t.Fatalf("swaps before exceeding budget = %d, want 0", got)
	}
	if err := e.Alloc(5 * PageSize); err != nil { // 13 pages > budget 10
		t.Fatal(err)
	}
	if got := e.Stats().PageSwaps; got != 3 {
		t.Errorf("swaps = %d, want 3", got)
	}
	if e.ResidentPages() != 10 {
		t.Errorf("resident = %d, want clamped to 10", e.ResidentPages())
	}
	e.Free(4 * PageSize)
	if e.ResidentPages() != 6 {
		t.Errorf("resident after free = %d, want 6", e.ResidentPages())
	}
}

func TestDestroyReleasesAndBlocks(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("km", Config{CodeIdentity: "km"})
	e.Alloc(PageSize)
	e.Destroy()
	if e.ResidentPages() != 0 {
		t.Error("destroy must release EPC")
	}
	if err := e.Ecall(0, UserCheck, func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Errorf("ecall after destroy: err = %v, want ErrDestroyed", err)
	}
	if err := e.Alloc(PageSize); !errors.Is(err, ErrDestroyed) {
		t.Errorf("alloc after destroy: err = %v, want ErrDestroyed", err)
	}
	// Name becomes available again (service-upgrade flow).
	if _, err := p.CreateEnclave("km", Config{CodeIdentity: "km-v2"}); err != nil {
		t.Errorf("recreate after destroy: %v", err)
	}
}

func TestRemoteAttestation(t *testing.T) {
	root, _ := NewRootOfTrust()
	p := NewPlatform(root)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "confide-cs-v1"})
	fingerprint := []byte("pk_tx-fingerprint-32-bytes-long!")
	rpt, err := e.RemoteAttest(fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(root.Verifier(), rpt, e.Measurement()); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	// The report data must round-trip (clients read pk_tx fingerprint out).
	if string(rpt.ReportData[:len(fingerprint)]) != string(fingerprint) {
		t.Error("report data corrupted")
	}
}

func TestRemoteAttestationRejectsForgery(t *testing.T) {
	root, _ := NewRootOfTrust()
	otherRoot, _ := NewRootOfTrust()
	p := NewPlatform(root)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	rpt, _ := e.RemoteAttest(nil)

	if err := VerifyReport(otherRoot.Verifier(), rpt, e.Measurement()); err == nil {
		t.Error("report verified under the wrong root")
	}
	tampered := rpt
	tampered.ReportData[0] ^= 1
	if err := VerifyReport(root.Verifier(), tampered, e.Measurement()); err == nil {
		t.Error("tampered report data verified")
	}
	var wrongMeasurement [32]byte
	wrongMeasurement[0] = 0xee
	if err := VerifyReport(root.Verifier(), rpt, wrongMeasurement); err == nil {
		t.Error("report verified against wrong expected measurement")
	}
}

func TestRemoteAttestLimitsReportData(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	if _, err := e.RemoteAttest(make([]byte, 65)); err == nil {
		t.Error("oversized report data should be rejected")
	}
}

func TestLocalAttestation(t *testing.T) {
	p := newTestPlatform(t)
	km, _ := p.CreateEnclave("km", Config{CodeIdentity: "km"})
	cs, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	la, err := cs.LocalAttest(km)
	if err != nil {
		t.Fatal(err)
	}
	if err := km.VerifyLocal(la); err != nil {
		t.Errorf("valid local attestation rejected: %v", err)
	}
	// Wrong target.
	other, _ := p.CreateEnclave("other", Config{CodeIdentity: "other"})
	if err := other.VerifyLocal(la); err == nil {
		t.Error("attestation for km verified by other")
	}
	// Tampered MAC.
	la.MAC[0] ^= 1
	if err := km.VerifyLocal(la); err == nil {
		t.Error("tampered local attestation verified")
	}
}

func TestLocalAttestationCrossPlatformFails(t *testing.T) {
	root, _ := NewRootOfTrust()
	p1, p2 := NewPlatform(root), NewPlatform(root)
	a, _ := p1.CreateEnclave("a", Config{CodeIdentity: "a"})
	b, _ := p2.CreateEnclave("b", Config{CodeIdentity: "b"})
	if _, err := a.LocalAttest(b); err == nil {
		t.Error("cross-platform local attestation should fail")
	}
	if _, err := a.SecureChannelKey(b); err == nil {
		t.Error("cross-platform channel should fail")
	}
}

func TestSecureChannelSymmetric(t *testing.T) {
	p := newTestPlatform(t)
	km, _ := p.CreateEnclave("km", Config{CodeIdentity: "km"})
	cs, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	k1, err := km.SecureChannelKey(cs)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cs.SecureChannelKey(km)
	if err != nil {
		t.Fatal(err)
	}
	if string(k1) != string(k2) {
		t.Error("channel key must be the same on both ends")
	}
}

func TestMemPoolReuse(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs", EPCPages: 1 << 20})
	pool := e.Pool()
	buf, err := pool.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) < 1000 {
		t.Fatalf("cap = %d, want >= 1000", cap(buf))
	}
	pool.Put(buf)
	buf2, _ := pool.Get(900)
	pool.Put(buf2)
	if pool.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5 (1 hit of 2 gets)", pool.HitRate())
	}
}

func TestMemPoolOversized(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs", EPCPages: 1 << 20})
	pool := e.Pool()
	buf, err := pool.Get(8 << 20) // beyond the largest class
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) < 8<<20 {
		t.Fatal("oversized get did not allocate enough")
	}
	resident := e.ResidentPages()
	pool.Put(buf)
	if e.ResidentPages() >= resident {
		t.Error("oversized put should free enclave memory")
	}
}

func TestMonitorStreamAndDrops(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	m := NewMonitor(e, 4)
	for i := 0; i < 6; i++ {
		m.Push("status")
	}
	if m.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", m.Dropped())
	}
	got := m.Poll(10)
	if len(got) != 4 {
		t.Errorf("polled %d messages, want 4", len(got))
	}
	// Ring space is reclaimed after polling.
	m.Push("again")
	if got := m.Poll(10); len(got) != 1 || got[0] != "again" {
		t.Errorf("poll after drain = %v", got)
	}
}

func TestMonitorConcurrentPushers(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs"})
	m := NewMonitor(e, 1024)
	var wg sync.WaitGroup
	const pushers, each = 8, 100
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				m.Push("msg")
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		batch := m.Poll(64)
		if len(batch) == 0 {
			break
		}
		total += len(batch)
	}
	if total+int(m.Dropped()) != pushers*each {
		t.Errorf("polled %d + dropped %d != pushed %d", total, m.Dropped(), pushers*each)
	}
}

func TestMonitorCheaperThanOcalls(t *testing.T) {
	p := newTestPlatform(t)
	viaOcall, _ := p.CreateEnclave("o", Config{CodeIdentity: "cs"})
	viaRing, _ := p.CreateEnclave("r", Config{CodeIdentity: "cs"})
	m := NewMonitor(viaRing, 1<<12)
	const n = 1000
	for i := 0; i < n; i++ {
		viaOcall.Ocall(32, CopyInOut, func() error { return nil })
		m.Push("status line")
	}
	if o, r := viaOcall.Stats().ChargedCycles, viaRing.Stats().ChargedCycles; r*10 > o {
		t.Errorf("exit-less monitor (%d cycles) should be >10x cheaper than ocalls (%d)", r, o)
	}
}

func TestInjectDelaysConsumesWallClock(t *testing.T) {
	p := newTestPlatform(t)
	e, _ := p.CreateEnclave("cs", Config{CodeIdentity: "cs", InjectDelays: true})
	start := nowForTest()
	for i := 0; i < 100; i++ {
		e.Ocall(0, UserCheck, func() error { return nil })
	}
	elapsed := nowForTest() - start
	// 100 ocalls * ~3 µs each ≈ 300 µs minimum.
	if elapsed < 200_000 {
		t.Errorf("elapsed = %d ns, want >= 200 µs of injected delay", elapsed)
	}
}

// TestNilEnclaveHasNoBoundary: the public engine holds a nil enclave and
// calls through it; fn runs, its error comes back, nothing is counted.
func TestNilEnclaveHasNoBoundary(t *testing.T) {
	var e *Enclave
	ecalls, ocalls := mEcalls.Value(), mOcalls.Value()
	want := errors.New("from fn")
	if err := e.Ecall(64, CopyInOut, func() error { return want }); err != want {
		t.Errorf("Ecall on a nil enclave returned %v, want fn's error", err)
	}
	ran := false
	if err := e.Ocall(64, CopyInOut, func() error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("Ocall on a nil enclave: ran=%v err=%v", ran, err)
	}
	if mEcalls.Value() != ecalls || mOcalls.Value() != ocalls {
		t.Error("a nil enclave counted a boundary crossing")
	}
}
