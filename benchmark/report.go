package main

// Metric names and units (normative: BENCHMARK.json and later issues cite
// them), small statistics helpers, the environment stamp and the output
// format.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them on an untraced run.
var endToEnd = []metricDef{
	{"committed_tps", "1/s"},
	{"commit_p50_ms", "ms"},
	{"receipt_p50_ms", "ms"},
	{"cpu_us_per_tx", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what a traced run reports, grouped by where the number comes
// from: (a) spans around the harness's own calls, (b) registry deltas and
// gauge samples over the traced portion, (c) the single-goroutine replay.
// A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	// (a) spans
	{"gateway.submit_rtt_p50_ms", "ms"},
	{"gateway.submit_us_per_tx", "us"},
	{"probe.seal_us_p50", "us"},
	{"probe.submit_ms_p50", "ms"},
	{"probe.wait_receipt_ms_p50", "ms"},
	{"probe.verify_proof_us_p50", "us"},
	{"probe.header_quorum_ms_p50", "ms"},
	{"probe.open_receipt_us_p50", "us"},
	{"client.commit_p95_ms", "ms"},
	{"client.commit_p99_ms", "ms"},
	{"client.slo_miss_share", "share"},
	{"loadgen.lateness_p99_ms", "ms"},
	// (b) registry
	{"gateway.shed_share", "share"},
	{"gateway.batch_size_mean", "count"},
	{"node.txs_per_block", "count"},
	{"node.blocks_per_s", "1/s"},
	{"node.stage_preverify_p50_ms", "ms"},
	{"node.stage_order_p50_ms", "ms"},
	{"node.stage_execute_p50_ms", "ms"},
	{"node.stage_commit_p50_ms", "ms"},
	{"node.block_execute_ms_mean", "ms"},
	{"node.block_commit_ms_mean", "ms"},
	{"node.verify_tag_hit_share", "share"},
	{"core.preverified_per_tx", "count"},
	{"core.preverify_attested_share", "share"},
	{"core.preverify_reject_share", "share"},
	{"node.occ_conflict_share", "share"},
	{"node.sync_path_per_kblock", "count"},
	{"consensus.msgs_per_block", "count"},
	{"consensus.proposals_per_committed_block", "count"},
	{"consensus.retransmits_per_block", "count"},
	{"consensus.fetches_per_block", "count"},
	{"consensus.view_changes", "count"},
	{"p2p.msgs_per_tx", "count"},
	{"p2p.drops", "count"},
	{"pipeline.exec_queue_txs_mean", "count"},
	{"pipeline.sched_inflight_blocks_mean", "count"},
	{"pipeline.aborted_blocks", "count"},
	{"pipeline.repooled_txs", "count"},
	{"pipeline.lane_busy_share", "share"},
	{"tee.ecalls_per_tx", "count"},
	{"tee.ocalls_per_tx", "count"},
	{"tee.copied_bytes_per_tx", "B"},
	{"tee.charged_cycles_per_tx", "count"},
	{"tee.page_swaps_per_tx", "count"},
	{"cvm.instructions_per_tx", "count"},
	{"cvm.host_calls_per_tx", "count"},
	{"cvm.compiled_run_share", "share"},
	{"cvm.code_cache_hit_share", "share"},
	{"storage.wal_appends_per_tx", "count"},
	{"storage.batch_writes_per_block", "count"},
	{"storage.memtable_flushes", "count"},
	{"storage.compactions", "count"},
	{"storage.bloom_skip_share", "share"},
	{"proc.alloc_mb_per_ktx", "MB"},
	{"proc.gc_pause_ms_total", "ms"},
	{"proc.goroutines_end", "count"},
	// (c) replay
	{"chain.decode_tx_us", "us"},
	{"chain.block_encode_us_per_tx", "us"},
	{"chain.block_decode_us_per_tx", "us"},
	{"chain.merkle_root_us_per_tx", "us"},
	{"crypto.envelope_open_us", "us"},
	{"crypto.envelope_open_cached_us", "us"},
	{"crypto.sig_verify_us", "us"},
	{"crypto.aead_seal_1k_us", "us"},
	{"core.preverify_us_per_tx", "us"},
	{"core.execute_us_per_tx", "us"},
	{"core.attest_us_per_block", "us"},
	{"core.verify_tag_us_per_block", "us"},
	{"core.op_tx_decrypt_us", "us"},
	{"core.op_tx_verify_us", "us"},
	{"core.op_contract_call_us", "us"},
	{"core.op_get_storage_us", "us"},
	{"core.op_set_storage_us", "us"},
	{"core.op_state_decrypt_us", "us"},
	{"core.op_state_encrypt_us", "us"},
	{"core.op_receipt_seal_us", "us"},
	{"core.op_code_load_us", "us"},
	{"storage.write_batch_us_per_block", "us"},
	{"storage.get_us", "us"},
	{"consensus.round_ms_64tx", "ms"},
	{"node.round_ms_64tx", "ms"},
	// derived
	{"ledger.replica_us_per_tx", "us"},
	{"ledger.coverage_share", "share"},
	{"bench.trace_overhead_share", "share"},
	{"failed_share", "share"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples (a metric with nothing to measure
// reads 0, never NaN).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// environment is the stamp every run carries: the fields the older
// BENCH_*.json files never recorded.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown (not a git checkout)",
		"kernel":     "unknown",
		"sut":        sutConfig(),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(out))
	}
	return env
}

// result is one run of one workload.
type result struct {
	Workload  string
	Loop      string
	Seed      int64
	Traced    bool
	Correct   bool
	Attempted int // batch transactions submitted plus probe walks, whole run
	Failed    int
	Submitted int     // batch transactions submitted, whole run
	Committed int     // commits inside the measured portion
	ProbeOps  int     // probe walks that ended inside the measured portion
	Measured  float64 // seconds
	Digest    string  // SHA-256 of the seeded inputs
	Flags     map[string]bool
	Metrics   map[string]float64
	Env       map[string]any
	Speed     string // the machine's speed during the run and the figures as measured
	Errors    []string
}

// print writes the human-readable report and, last, the one-line JSON object
// the driver parses. A run that failed the correctness gate prints its
// errors and no metrics.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d, %s loop, traced=%v) ==\n", r.Workload, r.Seed, r.Loop, r.Traced)
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "environment: %s\n", env)
	fmt.Fprintf(w, "inputs sha256: %s\n", r.Digest)
	fmt.Fprintf(w, "submitted %d txs; measured %.3f s, %d commits, %d probe receipts; attempted %d, failed %d\n",
		r.Submitted, r.Measured, r.Committed, r.ProbeOps, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "ERROR: %s\n", e)
	}
	if !r.Correct {
		fmt.Fprintln(w, "correctness gate FAILED; no metrics reported")
		return
	}
	fmt.Fprintln(w, "correctness gate passed: replicas agree, every accepted tx executed once everywhere, every receipt OK, sampled receipts SPV-verified")
	flags := make([]string, 0, len(r.Flags))
	for k, v := range r.Flags {
		flags = append(flags, fmt.Sprintf("%s: %v", k, v))
	}
	sort.Strings(flags)
	fmt.Fprintf(w, "flags: %s\n", strings.Join(flags, ", "))
	fmt.Fprintf(w, "speed: %s\n", r.Speed)

	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]map[string]any{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "%-42s %16.4f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	out, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", out)
}
