package node

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/metrics"
)

// scrape fetches the exposition endpoint and parses every sample line into
// series → value. It also sanity-checks the exposition framing (content
// type, HELP/TYPE ordering) the way a Prometheus scraper would. Series of
// gauge families are also recorded in gauges (pass nil to skip).
func scrape(t *testing.T, url string, gauges map[string]bool) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 16<<20))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[name] == "" {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		if typed[name] == "gauge" && gauges != nil {
			gauges[series] = true
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// sumPrefix totals every series whose name (ignoring labels) starts with
// prefix — e.g. all stage buckets of one histogram family.
func sumPrefix(samples map[string]float64, prefix string) float64 {
	var total float64
	for series, v := range samples {
		if strings.HasPrefix(series, prefix) {
			total += v
		}
	}
	return total
}

// TestMetricsEndpointDuringClusterRun scrapes /metrics while a small
// cluster commits confidential transactions, asserting that the
// TEE-boundary, pipeline-stage, storage and consensus series are present
// and that counters are monotone between scrapes.
func TestMetricsEndpointDuringClusterRun(t *testing.T) {
	if !metrics.Default().Enabled() {
		t.Skip("registry disabled")
	}
	srv := httptest.NewServer(metrics.Default().Handler())
	defer srv.Close()

	// An LSM-backed cluster exercises the WAL/memtable counters too.
	c := newTestCluster(t, ClusterOptions{Nodes: 4, StoreDir: t.TempDir()})
	client := newClusterClient(t, c)

	commitBatch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("alice"), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := c.DrainAll(8, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	commitBatch(3)
	gauges := make(map[string]bool) // may go down between scrapes
	first := scrape(t, srv.URL, gauges)

	// Counter families every cluster run must populate. Values are
	// process-wide (other tests contribute), so assert presence and > 0.
	wantPositive := []string{
		"confide_tee_ecalls_total",
		"confide_tee_boundary_copied_bytes_total",
		"confide_storage_batch_writes_total",
		"confide_storage_wal_appends_total",
		"confide_consensus_proposals_total",
		"confide_consensus_delivered_total",
		"confide_node_blocks_committed_total",
		"confide_node_txs_committed_total",
	}
	for _, series := range wantPositive {
		if v, ok := first[series]; !ok || v <= 0 {
			t.Errorf("series %s missing or non-positive (%v)", series, first[series])
		}
	}
	// Pipeline-stage histograms: each stage label must have observations.
	for _, stage := range pipelineStages {
		series := `confide_pipeline_stage_seconds_count{stage="` + stage + `"}`
		if v := first[series]; v <= 0 {
			t.Errorf("pipeline stage %q has no observations", stage)
		}
	}
	if v := first["confide_pipeline_total_seconds_count"]; v <= 0 {
		t.Error("pipeline total histogram has no observations")
	}

	commitBatch(3)
	second := scrape(t, srv.URL, nil)

	for series, before := range first {
		if gauges[series] {
			continue
		}
		after, ok := second[series]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", series)
			continue
		}
		if after < before {
			t.Errorf("series %s went backwards: %v -> %v", series, before, after)
		}
	}
	// The second batch must actually have moved the pipeline.
	if sumPrefix(second, "confide_pipeline_total_seconds_count") <=
		sumPrefix(first, "confide_pipeline_total_seconds_count") {
		t.Error("pipeline span count did not advance across batches")
	}

	// "Which replica paid the ECDH" from a scrape: under a tagged stream that
	// only the leader pre-verified (a saturated cluster), the followers
	// execute on relayed keys and nobody opens an envelope with sk_tx at
	// execution.
	const relayed = 6
	submitCredits(t, c, c.Nodes, "alice", relayed)
	proposeLeaderOnly(t, c, c.Nodes, nil)
	third := scrape(t, srv.URL, nil)
	for series, want := range map[string]float64{
		`confide_core_envelope_opens_total{path="ecdh"}`:    0,
		`confide_core_envelope_opens_total{path="local"}`:   relayed,
		`confide_core_envelope_opens_total{path="relayed"}`: relayed * 3,
		`confide_node_verify_tag_total{outcome="accepted"}`: 4,
		`confide_node_verify_tag_total{outcome="rejected"}`: 0,
		`confide_node_verify_tag_total{outcome="absent"}`:   0,
		`confide_core_executed_total{type="confidential"}`:  relayed * 4,
		`confide_core_preverify_attested_total`:             relayed * 4,
		`confide_node_occ_speculative_total`:                0,
	} {
		after, ok := third[series]
		if !ok {
			t.Errorf("series %s missing from the exposition", series)
		}
		if got := after - second[series]; got != want {
			t.Errorf("series %s moved by %v over the relayed block, want %v", series, got, want)
		}
	}

	// "Why did this block carry 4 transactions" from a scrape: under the
	// driver every proposal is a proposer loop's, cut for one of two reasons.
	stop := c.StartDriver(0)
	defer stop()
	var driven []*chain.Tx
	for i := 0; i < 12; i++ {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct("alice"), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		driven = append(driven, tx)
		time.Sleep(time.Millisecond)
	}
	waitCommittedEverywhere(t, c, driven, 10*time.Second)
	stop()
	fourth := scrape(t, srv.URL, nil)
	moved := func(series string) float64 { return fourth[series] - third[series] }
	cut := moved(`confide_node_blocks_cut_total{reason="full"}`) + moved(`confide_node_blocks_cut_total{reason="idle"}`)
	if proposed := moved("confide_consensus_proposals_total"); cut == 0 || cut != proposed {
		t.Errorf("blocks_cut_total moved by %v over %v driver proposals", cut, proposed)
	}

	summary := metrics.Default().Summary()
	for _, series := range []string{
		`confide_core_envelope_opens_total{path="relayed"}`,
		`confide_node_verify_tag_total{outcome="accepted"}`,
	} {
		if !strings.Contains(summary, series) {
			t.Errorf("Summary omits %s", series)
		}
	}
}
