package bench

import (
	"fmt"

	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/workload"
)

// OverheadResult reports instrumented-vs-disabled throughput for one cell
// (4 nodes, CONFIDE-VM, confidential, four OCC lanes).
type OverheadResult struct {
	Cell        string
	EnabledTPS  float64
	DisabledTPS float64
	// DeltaPct is (disabled-enabled)/disabled*100: the throughput the
	// instrumentation costs. Negative values mean noise favoured the
	// instrumented run.
	DeltaPct float64
}

func (r OverheadResult) String() string {
	return fmt.Sprintf("%-8s metrics overhead: enabled %.1f TPS, disabled %.1f TPS, delta %+.2f%%",
		r.Cell, r.EnabledTPS, r.DisabledTPS, r.DeltaPct)
}

// MetricsOverhead measures the cost of the observability layer by running
// each cell with the registry recording and with it switched to the no-op
// recorder. The budget is <2% per cell; rounds>1 keeps the best run per mode
// to damp scheduler noise. Two cells: Figure 10's ABS transfer, where
// per-transaction instruments dominate, and the SCF-AR suite (31 contract
// calls, 151 reads and 9 writes per transaction), where per-call ones do.
func MetricsOverhead(txs, rounds int) ([]OverheadResult, error) {
	// Small cells (tens of ms) are dominated by scheduler noise and can
	// report deltas of several percent in either direction; 256 txs keeps a
	// default run representative.
	if txs <= 0 {
		txs = 256
	}
	if rounds <= 0 {
		rounds = 3
	}
	cells := []struct {
		name string
		p    clusterParams
	}{
		{"ABS", clusterParams{source: workload.ABSTransferFlatSrc, gen: workload.ABSFlatInputSmall}},
		{"SCF-AR", clusterParams{scf: true, gen: workload.SCFTransferInput}},
	}
	reg := metrics.Default()
	wasEnabled := reg.Enabled()
	defer reg.SetEnabled(wasEnabled)

	var out []OverheadResult
	for _, c := range cells {
		p := c.p
		p.nodes, p.vm, p.confidential, p.txs, p.parallel = 4, core.VMCVM, true, txs, 4
		// The modes alternate, and each round starts with the mode the last
		// one ended with, so warm-up and drift fall on both.
		best := map[bool]float64{}
		for i := 0; i < rounds; i++ {
			for _, enabled := range []bool{i%2 == 0, i%2 != 0} {
				reg.SetEnabled(enabled)
				tps, err := clusterThroughput(p)
				if err != nil {
					return nil, fmt.Errorf("overhead %s (enabled %v): %w", c.name, enabled, err)
				}
				best[enabled] = max(best[enabled], tps)
			}
		}
		out = append(out, OverheadResult{
			Cell:        c.name,
			EnabledTPS:  best[true],
			DisabledTPS: best[false],
			DeltaPct:    (best[false] - best[true]) / best[false] * 100,
		})
	}
	return out, nil
}
