package main

// Per-layer metrics of a traced run, sources (a) and (b): the span log and
// the registry's movement over the traced half. Counters in the registry are
// process-wide, so they sum all four replicas; "per tx" divides by distinct
// committed transactions and "per block" by distinct committed blocks.

import (
	"encoding/hex"
	"runtime"
)

type traceInputs struct {
	w          workload
	track      *tracker
	gen        *batchGen
	spans      *spanLog
	traced     window
	reg        registryDelta
	gauges     map[string]float64
	memA, memB runtime.MemStats
	failed     int // operations that failed anywhere in the run
}

func (t *traceInputs) layerMetrics(m map[string]float64) {
	// Commit latencies of the traced half, and a span per transaction.
	var latT []float64
	t.track.mu.Lock()
	for h, r := range t.track.recs {
		if r.failed || r.gw < 0 || !t.traced.has(r.commitAt) {
			continue
		}
		latT = append(latT, r.commitAt.Sub(r.due).Seconds())
		t.spans.add(span{Name: "client.commit", Start: r.due.Sub(t.spans.t0).Nanoseconds(),
			End: r.commitAt.Sub(t.spans.t0).Nanoseconds(), Parent: int(r.batch), ID: hex.EncodeToString(h[:8])})
	}
	t.track.mu.Unlock()

	// (a) spans around the harness's own calls.
	ms := func(name string, q float64) float64 { return quantile(t.spans.durations(name), q) * 1e3 }
	us := func(name string, q float64) float64 { return quantile(t.spans.durations(name), q) * 1e6 }
	m["gateway.submit_rtt_p50_ms"] = ms("gateway.submit_batch", 0.5)
	var postSeconds float64
	for _, d := range t.spans.durations("gateway.submit_batch") {
		postSeconds += d
	}
	m["gateway.submit_us_per_tx"] = ratio(postSeconds*1e6, float64(t.spans.txs("loadgen.batch")))
	m["probe.seal_us_p50"] = us("probe.seal", 0.5)
	m["probe.submit_ms_p50"] = ms("probe.submit", 0.5)
	m["probe.wait_receipt_ms_p50"] = ms("probe.wait_receipt", 0.5)
	m["probe.verify_proof_us_p50"] = us("probe.verify_proof", 0.5)
	m["probe.header_quorum_ms_p50"] = ms("probe.header_quorum", 0.5)
	m["probe.open_receipt_us_p50"] = us("probe.open_receipt", 0.5)
	m["client.commit_p95_ms"] = quantile(latT, 0.95) * 1e3
	m["client.commit_p99_ms"] = quantile(latT, 0.99) * 1e3
	misses := 0
	for _, l := range latT {
		if l > 0.100 {
			misses++
		}
	}
	m["client.slo_miss_share"] = ratio(float64(misses+t.failed), float64(len(latT)+t.failed))
	m["loadgen.lateness_p99_ms"] = quantile(t.gen.latenessIn(t.traced), 0.99) * 1e3

	// (b) registry movement over the traced half.
	d := t.reg
	replicas := float64(sutNodes)
	txs := d.counter("confide_node_txs_committed_total") / replicas
	blocks := d.counter("confide_node_blocks_committed_total") / replicas
	accepted := d.counter("confide_gateway_accepted_txs_total")
	shed := d.counter("confide_gateway_shed_total")
	m["gateway.shed_share"] = ratio(shed, shed+accepted)
	batch := d.hist("confide_gateway_submit_batch_size")
	m["gateway.batch_size_mean"] = ratio(batch.Sum, float64(batch.Count))
	m["node.txs_per_block"] = ratio(txs, blocks)
	m["node.blocks_per_s"] = ratio(blocks, t.traced.seconds())
	for _, stage := range []string{"preverify", "order", "execute", "commit"} {
		h := d.hist(`confide_pipeline_stage_seconds{stage="` + stage + `"}`)
		v := 0.0
		if h.Count > 0 {
			v = h.Quantile(0.5) * 1e3
		}
		m["node.stage_"+stage+"_p50_ms"] = v
	}
	exec := d.hist("confide_node_block_execute_seconds")
	m["node.block_execute_ms_mean"] = ratio(exec.Sum*1e3, float64(exec.Count))
	commit := d.hist("confide_node_block_commit_seconds")
	m["node.block_commit_ms_mean"] = ratio(commit.Sum*1e3, float64(commit.Count))
	tagOK := d.series(`confide_node_verify_tag_total{outcome="accepted"}`)
	tagBad := d.series(`confide_node_verify_tag_total{outcome="rejected"}`)
	m["node.verify_tag_hit_share"] = ratio(tagOK, tagOK+tagBad)
	preverified := d.counter("confide_core_preverified_total")
	rejects := d.counter("confide_core_preverify_rejects_total")
	m["core.preverified_per_tx"] = ratio(preverified, txs)
	m["core.preverify_attested_share"] = ratio(d.counter("confide_core_preverify_attested_total"), txs*replicas)
	m["core.preverify_reject_share"] = ratio(rejects, rejects+preverified)
	m["node.occ_conflict_share"] = ratio(d.counter("confide_node_occ_conflicts_total"), d.counter("confide_node_occ_speculative_total"))
	m["node.sync_path_per_kblock"] = ratio(d.counter("confide_node_sync_path_total")*1e3, blocks*replicas)
	sent := d.counter("confide_p2p_sent_total")
	gossip := accepted * (replicas - 1) // each accepted tx is broadcast once
	m["consensus.msgs_per_block"] = ratio(sent-gossip, blocks)
	m["consensus.proposals_per_committed_block"] = ratio(d.counter("confide_consensus_proposals_total"), blocks)
	m["consensus.retransmits_per_block"] = ratio(d.counter("confide_consensus_retransmissions_total"), blocks)
	m["consensus.fetches_per_block"] = ratio(d.counter("confide_consensus_fetches_total"), blocks)
	m["consensus.view_changes"] = d.counter("confide_consensus_view_changes_total")
	m["p2p.msgs_per_tx"] = ratio(sent, txs)
	m["p2p.drops"] = d.counter("confide_p2p_drops_total")
	m["pipeline.exec_queue_txs_mean"] = t.gauges["confide_pipeline_exec_queue_txs"]
	m["pipeline.sched_inflight_blocks_mean"] = t.gauges["confide_pipeline_sched_inflight_blocks"]
	m["pipeline.aborted_blocks"] = d.counter("confide_pipeline_sched_aborted_total")
	m["pipeline.repooled_txs"] = d.counter("confide_pipeline_sched_repooled_txs_total")
	// No OCC lanes at the default ExecWorkers: the family is then absent and
	// the share reads 0.
	lanes := float64(len(familySeries(d.after.Counters, "confide_pipeline_lane_busy_microseconds_total")))
	m["pipeline.lane_busy_share"] = ratio(d.counter("confide_pipeline_lane_busy_microseconds_total")/1e6, lanes*t.traced.seconds())
	m["tee.ecalls_per_tx"] = ratio(d.counter("confide_tee_ecalls_total"), txs)
	m["tee.ocalls_per_tx"] = ratio(d.counter("confide_tee_ocalls_total"), txs)
	m["tee.copied_bytes_per_tx"] = ratio(d.counter("confide_tee_boundary_copied_bytes_total"), txs)
	m["tee.charged_cycles_per_tx"] = ratio(d.counter("confide_tee_charged_cycles_total"), txs)
	m["tee.page_swaps_per_tx"] = ratio(d.counter("confide_tee_page_swaps_total"), txs)
	runs := d.counter("confide_cvm_runs_total")
	m["cvm.instructions_per_tx"] = ratio(d.counter("confide_cvm_instructions_total"), txs)
	m["cvm.host_calls_per_tx"] = ratio(d.counter("confide_cvm_host_calls_total"), txs)
	m["cvm.compiled_run_share"] = ratio(d.counter("confide_cvm_code_cache_compiled_hits_total"), runs)
	hits, cacheMisses := d.counter("confide_cvm_code_cache_hits_total"), d.counter("confide_cvm_code_cache_misses_total")
	m["cvm.code_cache_hit_share"] = ratio(hits, hits+cacheMisses)
	m["storage.wal_appends_per_tx"] = ratio(d.counter("confide_storage_wal_appends_total"), txs)
	m["storage.batch_writes_per_block"] = ratio(d.counter("confide_storage_batch_writes_total"), blocks)
	m["storage.memtable_flushes"] = d.counter("confide_storage_memtable_flushes_total")
	m["storage.compactions"] = d.counter("confide_storage_compactions_total")
	m["storage.bloom_skip_share"] = ratio(d.counter("confide_storage_bloom_skips_total"), d.counter("confide_storage_bloom_checks_total"))
	m["proc.alloc_mb_per_ktx"] = ratio(float64(t.memB.TotalAlloc-t.memA.TotalAlloc)/1e6, txs/1e3)
	m["proc.gc_pause_ms_total"] = float64(t.memB.PauseTotalNs-t.memA.PauseTotalNs) / 1e6
}

// familySeries lists the series of one family in a counter snapshot.
func familySeries(counters map[string]uint64, family string) []string {
	var out []string
	for name := range counters {
		if name == family || (len(name) > len(family) && name[:len(family)+1] == family+"{") {
			out = append(out, name)
		}
	}
	return out
}
