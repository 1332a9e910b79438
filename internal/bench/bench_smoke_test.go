package bench

import (
	"strings"
	"testing"

	"confide/internal/core"
)

// These tests run heavily scaled-down experiment cells to guard the bench
// harness itself; the real measurements live in the repository-root
// benchmarks and cmd/benchrunner.

func TestFigure10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	rows, err := Figure10(Fig10Config{Nodes: 4, TxsPerCell: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 workloads × 2 engines × 2 modes
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, r := range rows {
		if r.TPS <= 0 {
			t.Errorf("%s/%s: tps = %v", r.Workload, r.Engine, r.TPS)
		}
	}
	// Shape assertions live in the full-size repository benchmarks; at 3
	// txs per cell the per-round fixed costs dominate.
}

func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	rows, err := Figure11(Fig11Config{
		NodeCounts:     []int{4},
		Parallel:       []int{1, 4},
		TxsPerCell:     24,
		IncludeTwoZone: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// The figure's shape: with 2 ms cold reads to overlap, four OCC lanes
	// must clearly beat one (the paper's ≈ 2×; 1.6–2.1× here). A speculative
	// pass that stopped running in parallel reads ≈ 1×. The race detector
	// serializes enough to flatten the ratio, so the shape is asserted only
	// without it.
	if oneWay, fourWay := rows[0].TPS, rows[1].TPS; !raceEnabled && fourWay < 1.3*oneWay {
		t.Errorf("4-way %.1f tps < 1.3 × 1-way %.1f tps", fourWay, oneWay)
	}
}

func TestTable1Smoke(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile[core.OpContractCall].Count != 31 {
		t.Errorf("contract calls = %d, want 31", res.Profile[core.OpContractCall].Count)
	}
	if res.Profile[core.OpGetStorage].Count != 151 {
		t.Errorf("GetStorage = %d, want 151", res.Profile[core.OpGetStorage].Count)
	}
	if res.Profile[core.OpSetStorage].Count != 9 {
		t.Errorf("SetStorage = %d, want 9", res.Profile[core.OpSetStorage].Count)
	}
	if !strings.Contains(res.Rendered, "Contract Call") {
		t.Error("rendered table incomplete")
	}
}

func TestFigure12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation experiment")
	}
	rows, err := Figure12(Fig12Config{Txs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// The fully optimized configurations must beat Base (skipped under the
	// race detector, whose instrumentation skews relative timings).
	if !raceEnabled && rows[4].TPS <= rows[0].TPS {
		t.Errorf("all-opts (%.1f) should beat base (%.1f)", rows[4].TPS, rows[0].TPS)
	}
	if !raceEnabled && rows[5].TPS <= rows[0].TPS {
		t.Errorf("all-opts+compile (%.1f) should beat base (%.1f)", rows[5].TPS, rows[0].TPS)
	}
}

func TestProductionMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	m, err := ProductionMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgBlockWrite <= 0 || m.AvgEmptyBlock <= 0 || m.AvgBlockExecution <= 0 {
		t.Errorf("metrics incomplete: %+v", m)
	}
}
