package main

// One run of one workload: set up, warm up, measure, settle, check, report.
//
// The measured portion is cut into slices and every end-to-end figure is the
// median over the slices, after scaling the figures that are processor time
// in disguise by the machine's speed during the slice (speed.go). A dip in
// the sandbox's speed then costs one slice, not a share of the result, and a
// slow day does not read as a slow program.

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"confide/internal/gateway/gwclient"
	"confide/internal/metrics"
)

const (
	// sliceSeconds is the target length of one slice of the measured portion.
	sliceSeconds = 2.0
	// maxFailedShare is the share of attempted operations that may fail
	// before the run itself fails: a system that sheds or drops its slow
	// requests must not read as a faster one.
	maxFailedShare = 0.001
)

type runConfig struct {
	w       workload
	seed    int64
	seconds float64 // measured portion; warmupShare of it runs first
	trace   bool
	outDir  string
}

// mark is the process's state at one slice boundary.
type mark struct {
	at  time.Time
	cpu float64
	vc  uint64 // consensus view changes adopted so far
	// the two ends of a traced half only
	reg metrics.Snapshot
	mem runtime.MemStats
}

var (
	viewChanges = metrics.Default().Counter("confide_consensus_view_changes_total", "")
	dedupSkips  = metrics.Default().Counter("confide_node_dedup_skips_total", "")
)

func takeMark(registry bool) mark {
	m := mark{at: time.Now(), cpu: cpuSeconds(), vc: viewChanges.Value()}
	if registry {
		m.reg = metrics.Default().Snapshot()
		runtime.ReadMemStats(&m.mem)
	}
	return m
}

// slice is what completed between two marks.
type slice struct {
	commits  int
	lat      []float64 // commit latency of the batch generator's transactions, s
	receipts []float64 // probe: seal to opened receipt, s
}

// figures are the end-to-end metrics the slices yield.
type figures struct {
	tps, commitP50ms, receiptP50ms, cpuUSPerTx float64
}

// endToEndOf reduces a run of slices to the end-to-end figures: each is the
// median over the slices that have something to measure. slow[i] is how much
// slower than the reference machine the box ran during slice i (nil reads
// every figure as measured). Processor time per transaction always scales
// with it. In a closed loop so do the throughput and the latencies, which
// are then the window over the throughput; in the open loop the throughput is
// the offered rate and the latencies are mostly waits on timers, so they
// stay as measured.
func endToEndOf(marks []mark, slices []slice, slow []float64, closed bool) figures {
	var t, c, r, u []float64
	for i, s := range slices {
		dt := marks[i+1].at.Sub(marks[i].at).Seconds()
		if dt <= 0 {
			continue
		}
		cpuScale, loopScale := 1.0, 1.0
		if slow != nil {
			cpuScale = slow[i]
			if closed {
				loopScale = slow[i]
			}
		}
		t = append(t, float64(s.commits)/dt*loopScale)
		if s.commits > 0 {
			u = append(u, (marks[i+1].cpu-marks[i].cpu)*1e6/float64(s.commits)/cpuScale)
		}
		if len(s.lat) > 0 {
			c = append(c, median(s.lat)*1e3/loopScale)
		}
		if len(s.receipts) > 0 {
			r = append(r, median(s.receipts)*1e3/loopScale)
		}
	}
	return figures{median(t), median(c), median(r), median(u)}
}

func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{
		Workload: w.name, Loop: w.loop(), Seed: cfg.seed, Traced: cfg.trace,
		Flags: map[string]bool{}, Metrics: map[string]float64{}, Env: environment(),
	}

	speed, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer speed.close()

	skipsBefore := dedupSkips.Value()

	// ---- set-up: boot, K-Protocol, compile and deploy, generate and seal ----
	setupStart := time.Now()
	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	s, err := bootSUT(w.durable, tmpRoot)
	if err != nil {
		return nil, err
	}
	defer s.close()
	epoch, pkTx := s.cluster.EnvelopeKeyInfo()
	clients := make([]*sealer, clientIdentities+1) // the last one is the probe's
	for i := range clients {
		if clients[i], err = newSealer(epoch, pkTx); err != nil {
			return nil, err
		}
	}
	to, wiring, err := w.deploy(s.cluster, clients[0])
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	loadSeconds := cfg.seconds * (1 + warmupShare)
	perBatch := max(w.openRate*int(openBatchEvery)/int(time.Second), 1)
	stockN := int(float64(w.stockRate) * loadSeconds)
	if w.openRate == 0 {
		stockN += closedWindow // the closed loop's first fill
	}
	stockN = (stockN/perBatch + 1) * perBatch
	in := generateInputs(w, cfg.seed, stockN, int(probeStockPerSecond*loadSeconds)+1)
	res.Digest = in.digest
	stock, err := sealStock(w, to, clients, in.calls)
	if err != nil {
		return nil, fmt.Errorf("seal stock: %w", err)
	}
	in.calls = nil

	track := newTracker(stockN + len(in.probe))
	if w.openRate == 0 {
		// A closed loop commits as many transactions as the system and the
		// machine allow in the time, and the process's memory grows with them.
		// peak_rss_mb is therefore read when a fixed number has committed —
		// one the baseline reaches well before the clock stops even on a slow
		// day — so that both sides of a comparison are read after identical work.
		// The open loop's count is fixed by its schedule; it is read at the end.
		track.rssAfter = int(float64(w.stockRate) * cfg.seconds / 4)
	}
	for i, n := range s.cluster.Nodes {
		off := n.OnCommit(track.hook(i))
		defer off()
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	// A connection dialled but never used makes the gateways' graceful
	// shutdown wait five seconds for its first request, so the clients hang
	// up before the gateways close. The SDK dials on the default transport.
	hangUp := func() {
		transport.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
	}
	defer hangUp()
	httpc := &http.Client{Transport: transport, Timeout: settleTimeout}
	spans := &spanLog{}
	stop := &atomic.Bool{}
	gen := &batchGen{w: w, stock: stock, schedule: in.schedule, urls: s.urls, http: httpc, track: track, spans: spans, stop: stop}
	if len(wiring) > 0 {
		// The SCF suite's routing state goes through consensus like any
		// other write, before the clock starts.
		now := time.Now()
		gen.submit(wiring, []time.Time{now, now})
		if !track.settle(settleTimeout) {
			return nil, fmt.Errorf("wiring transactions did not commit")
		}
	}
	sdk, err := gwclient.Dial(gwclient.Config{
		Gateways:    s.urls,
		Verifier:    s.cluster.Root.Verifier(),
		Measurement: s.cluster.Nodes[0].ConfidentialEngine().Enclave().Measurement(),
	})
	if err != nil {
		return nil, fmt.Errorf("dial gateways: %w", err)
	}
	pr := &probe{w: w, to: to, calls: in.probe, sealer: clients[clientIdentities], sdk: sdk,
		urls: s.urls, http: httpc, track: track, spans: spans, stop: stop}
	runtime.GC()
	setupRaw := time.Since(setupStart).Seconds()
	setupSeconds := setupRaw / speed.slowdown(window{setupStart, time.Now()})

	// ---- load: warm-up, then the measured portion in slices ----
	t0 := time.Now()
	spans.t0 = t0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gen.run(t0) }()
	go func() { defer wg.Done(); pr.run() }()

	warm := time.Duration(cfg.seconds * warmupShare * float64(time.Second))
	measured := time.Duration(cfg.seconds * float64(time.Second))
	nSlices := max(int(math.Round(cfg.seconds/sliceSeconds)), 1)
	// A traced run measures its first half untraced and its second half
	// traced, so the overhead of tracing is taken within one process.
	mid := 0
	if cfg.trace {
		mid = nSlices / 2
	}
	var marks []mark
	var sampler *gaugeSampler
	for k := 0; k <= nSlices; k++ {
		time.Sleep(time.Until(t0.Add(warm + measured*time.Duration(k)/time.Duration(nSlices))))
		marks = append(marks, takeMark(cfg.trace && (k == mid || k == nSlices)))
		if cfg.trace && k == mid {
			spans.on.Store(true)
			sampler = startGaugeSampler()
		}
	}
	var gaugeMeans map[string]float64
	if sampler != nil {
		gaugeMeans = sampler.finish()
	}
	stop.Store(true)
	wg.Wait()
	spans.on.Store(false)
	a, b := marks[0], marks[nSlices]

	// ---- settle and check ----
	settled := track.settle(settleTimeout)
	submitted := stock[:gen.next]
	violations, badReceipts := gate(s, track, submitted, sdk, cfg.seed, dedupSkips.Value()-skipsBefore)
	if !settled {
		violations = append(violations, "accepted transactions still uncommitted on some replica 30 s after the last submission")
	}
	// A stock that ran out before the clock did starved the later slices, so
	// the figures would describe the harness's ceiling, not the system's.
	if !gen.exhausted.IsZero() && gen.exhausted.Before(b.at) {
		violations = append(violations, fmt.Sprintf(
			"the pre-sealed stock of %d transactions ran out %.1f s before the measured portion ended: raise %s's stockRate in a benchmark-only change",
			stockN, b.at.Sub(gen.exhausted).Seconds(), w.name))
	}

	// ---- account ----
	slices := make([]slice, len(marks)-1)
	sliceOf := func(t time.Time) *slice {
		if t.Before(a.at) || !t.Before(b.at) {
			return nil
		}
		return &slices[sort.Search(len(marks), func(i int) bool { return marks[i].at.After(t) })-1]
	}
	track.mu.Lock()
	for _, r := range track.recs {
		sl := sliceOf(r.commitAt)
		switch {
		case r.gw < 0:
			// The probe's transactions are accounted by its operations below.
		case r.failed, r.commitAt.IsZero():
			res.Failed++
		case sl != nil:
			sl.lat = append(sl.lat, r.commitAt.Sub(r.due).Seconds())
		}
		if sl != nil && !r.failed {
			sl.commits++
			res.Committed++
		}
	}
	rssMB := track.rssMB
	track.mu.Unlock()
	res.Failed += badReceipts
	for _, op := range pr.ops {
		if !op.ok {
			res.Failed++
		} else if sl := sliceOf(op.end); sl != nil {
			sl.receipts = append(sl.receipts, op.end.Sub(op.start).Seconds())
			res.ProbeOps++
		}
	}
	res.Submitted = len(submitted)
	res.Attempted = len(submitted) + len(pr.ops)
	res.Measured = b.at.Sub(a.at).Seconds()
	whole := window{a.at, b.at}
	res.Flags["generator_bound"] = quantile(gen.latenessIn(whole), 0.99) > 0.020
	res.Flags["disturbed"] = b.vc > a.vc
	if share := ratio(float64(res.Failed), float64(res.Attempted)); share > maxFailedShare {
		violations = append(violations, fmt.Sprintf("%d of %d operations failed (share %.4f, limit %.3f)", res.Failed, res.Attempted, share, maxFailedShare))
	}
	res.Errors = violations
	res.Correct = len(violations) == 0

	slow := make([]float64, len(slices))
	for i := range slices {
		slow[i] = speed.slowdown(window{marks[i].at, marks[i+1].at})
	}
	closed := w.openRate == 0
	f, raw := endToEndOf(marks, slices, slow, closed), endToEndOf(marks, slices, nil, closed)
	m := res.Metrics
	m["committed_tps"], m["commit_p50_ms"], m["receipt_p50_ms"], m["cpu_us_per_tx"] = f.tps, f.commitP50ms, f.receiptP50ms, f.cpuUSPerTx
	m["setup_s"] = setupSeconds
	res.Speed = fmt.Sprintf(
		"machine ran at %.2fx the reference unit time (median over slices); as measured, unscaled: committed_tps %.1f, commit_p50_ms %.2f, receipt_p50_ms %.2f, cpu_us_per_tx %.1f, setup_s %.2f",
		median(slow), raw.tps, raw.commitP50ms, raw.receiptP50ms, raw.cpuUSPerTx, setupRaw)

	if cfg.trace {
		tr := &traceInputs{w: w, track: track, gen: gen, spans: spans,
			traced: window{marks[mid].at, b.at}, reg: registryDelta{marks[mid].reg, b.reg},
			gauges: gaugeMeans, memA: marks[mid].mem, memB: b.mem, failed: res.Failed}
		tr.layerMetrics(m)
		m["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
		// Tracing overhead: how much worse the workload's primary metric reads
		// on the traced half than on the untraced one.
		if mid > 0 {
			u := endToEndOf(marks[:mid+1], slices[:mid], slow[:mid], closed)
			t := endToEndOf(marks[mid:], slices[mid:], slow[mid:], closed)
			if w.primary == "committed_tps" {
				m["bench.trace_overhead_share"] = 1 - ratio(t.tps, u.tps)
			} else {
				m["bench.trace_overhead_share"] = ratio(t.commitP50ms, u.commitP50ms) - 1
			}
		}
		hangUp()
		s.close()
		time.Sleep(50 * time.Millisecond) // let the closed servers' goroutines exit
		m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
		if err := replay(w, s.cluster.Secrets, submitted, tmpRoot, m); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		// Both sides as measured: the replay's figures are not speed-scaled.
		m["ledger.coverage_share"] = ratio(sutNodes*m["ledger.replica_us_per_tx"], raw.cpuUSPerTx)
		header := map[string]any{"workload": w.name, "seed": cfg.seed, "environment": res.Env,
			"traced_from_ns": marks[mid].at.Sub(t0).Nanoseconds(), "traced_to_ns": b.at.Sub(t0).Nanoseconds()}
		if err := spans.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), header); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if rssMB == 0 {
		// Open loop, or a closed loop that committed less than the fixed count.
		rssMB = peakRSSMB()
	}
	m["peak_rss_mb"] = rssMB
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is not finite", name))
			res.Correct = false
		}
	}
	return res, nil
}

// window is a half-open interval of wall-clock time.
type window struct{ from, to time.Time }

func (w window) has(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

func (w window) seconds() float64 { return w.to.Sub(w.from).Seconds() }
