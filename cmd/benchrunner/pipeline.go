package main

// -exp pipeline: depth × OCC-lane × conflict-rate sweep over the pipelined
// block scheduler. Every cell runs a fresh 4-node cluster on the gateway
// sweep's cadence budget (16-tx blocks, 40 ms driver tick), so depth 1 is
// the serialized 400 tps ceiling the edge benchmark measured — and each
// extra pipeline slot raises the per-tick ordering budget by one block.
// An in-process feeder keeps the leader's verified pool topped from a
// pre-sealed transaction stock, so the measurement window captures the
// pipeline's drain rate, not client sealing CPU.
//
// The sweep carries a payload-mode axis. Confidential cells run the full
// envelope path and hit this container's crypto ceiling: each of the four
// replicas pays an ECDH envelope open plus an ECDSA signature check
// (~270 µs of single-core CPU per transaction per replica), which saturates
// the box near 1.1k tps no matter how deep the pipeline runs — a measured
// finding the sweep reports rather than hides. Public cells strip the
// envelope (signature checks and contract execution remain) and isolate
// the scheduler's own ordering ceiling, which is what the depth axis is
// designed to break.
//
// Per cell the sweep reports committed throughput (from the node's commit
// notifications), the OCC speculation conflict rate at that hot-key
// probability, lane occupancy, and submit→commit latency percentiles.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/workload"
)

// plRow is one (mode, depth, workers, hotProb) cell of the sweep
// (serialized into BENCH_pipeline.json by -json).
type plRow struct {
	Mode         string  `json:"mode"` // "confidential" | "public"
	Depth        int     `json:"depth"`
	Workers      int     `json:"workers"`
	HotProb      float64 `json:"hot_prob"`
	Seconds      float64 `json:"seconds"`
	Blocks       uint64  `json:"blocks"`
	CommittedTPS float64 `json:"committed_tps"`
	Speculated   uint64  `json:"occ_speculated"`
	Conflicts    uint64  `json:"occ_conflicts"`
	ConflictRate float64 `json:"occ_conflict_rate"`
	LaneBusyPct  float64 `json:"lane_busy_pct"`
	Speedup      float64 `json:"speedup_vs_serialized"`
	CommitP50Ms  float64 `json:"commit_p50_ms"`
	CommitP95Ms  float64 `json:"commit_p95_ms"`
}

// plDebug turns on in-window state sampling (development aid).
const plDebug = false

// plCell names one sweep configuration.
type plCell struct {
	mode    string
	depth   int
	workers int
	hot     float64
}

func pipelineCells(quick bool) []plCell {
	if quick {
		return []plCell{
			{"confidential", 1, 1, 0.25},
			{"confidential", 8, 4, 0.25},
			{"public", 1, 1, 0.25},
			{"public", 8, 1, 0.25},
			{"public", 8, 4, 0.25},
		}
	}
	var cells []plCell
	// Confidential: the envelope's asymmetric crypto dominates long before
	// OCC conflicts matter, so one conflict level suffices.
	for _, d := range []int{1, 2, 4, 8} {
		for _, w := range []int{1, 4} {
			cells = append(cells, plCell{"confidential", d, w, 0.25})
		}
	}
	// Public: the scheduler is the binding constraint — sweep the conflict
	// axis too so the lanes' validation-pass discards become visible.
	for _, hot := range []float64{0.25, 0.75} {
		for _, d := range []int{1, 2, 4, 8} {
			for _, w := range []int{1, 4} {
				cells = append(cells, plCell{"public", d, w, hot})
			}
		}
	}
	return cells
}

func runPipeline(quick bool) (any, error) {
	window := 2 * time.Second
	if quick {
		window = time.Second
	}
	fmt.Println("=== Pipeline: depth × OCC-lane × conflict-rate sweep (4 nodes, 16-tx blocks, 40 ms tick) ===")
	fmt.Printf("%-13s %-6s %-8s %-5s %10s %8s %10s %9s %8s %9s %9s\n",
		"mode", "depth", "workers", "hot", "committed", "blocks", "conflict%", "lane%", "speedup", "p50ms", "p95ms")

	var rows []plRow
	base := map[string]float64{} // depth=1/workers=1 committed tps per (mode, hot)
	for _, c := range pipelineCells(quick) {
		row, err := runPipelineCell(c, window)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s/%.2f", c.mode, c.hot)
		if c.depth == 1 && c.workers == 1 {
			base[key] = row.CommittedTPS
		}
		if b := base[key]; b > 0 {
			row.Speedup = row.CommittedTPS / b
		}
		rows = append(rows, row)
		fmt.Printf("%-13s %-6d %-8d %-5.2f %10.1f %8d %10.1f %9.1f %7.2fx %9.1f %9.1f\n",
			row.Mode, row.Depth, row.Workers, row.HotProb, row.CommittedTPS, row.Blocks,
			100*row.ConflictRate, row.LaneBusyPct, row.Speedup, row.CommitP50Ms, row.CommitP95Ms)
	}

	// The headline the sweep exists for: pipelining breaks the serialized
	// one-proposal-per-tick ceiling by the window depth.
	var best plRow
	for _, r := range rows {
		if r.CommittedTPS > best.CommittedTPS {
			best = r
		}
	}
	fmt.Printf("best cell %s depth=%d workers=%d hot=%.2f: %.0f tps committed, %.1fx the 393 tps serialized closed-loop baseline\n",
		best.Mode, best.Depth, best.Workers, best.HotProb, best.CommittedTPS, best.CommittedTPS/393)
	return rows, nil
}

func runPipelineCell(c plCell, window time.Duration) (plRow, error) {
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			// The same deliberately small cadence budget as the gateway
			// sweep: 16-tx blocks cut on a 40 ms tick put the serialized
			// ceiling at 400 tps, so the depth axis — not a CPU race —
			// decides the cell's throughput.
			BlockMaxTxs:   16,
			PipelineDepth: c.depth,
			ExecWorkers:   c.workers,
			EngineOpts:    core.AllOptimizations(),
			Consensus: consensus.Options{
				// Generous: the measurement window saturates the single
				// core, and heartbeat goroutines starved past the timeout
				// would trigger view changes mid-cell.
				ViewTimeout:        2 * time.Second,
				RetransmitInterval: 20 * time.Millisecond,
				RetransmitMax:      200 * time.Millisecond,
				HeartbeatInterval:  50 * time.Millisecond,
			},
			SyncInterval: 40 * time.Millisecond,
		},
	})
	if err != nil {
		return plRow{}, err
	}
	defer cluster.Close()

	addr := chain.AddressFromBytes([]byte("pl-bench"))
	owner := chain.AddressFromBytes([]byte("pl-owner"))
	code, err := workload.Compile(workload.ABSTransferFlatSrc, core.VMCVM)
	if err != nil {
		return plRow{}, err
	}
	confidential := c.mode == "confidential"
	if err := cluster.DeployEverywhere(addr, owner, core.VMCVM, code, confidential, 1); err != nil {
		return plRow{}, err
	}

	// Commits apply on every replica; node 0 observes them whether or not
	// it currently leads.
	obs := newCommitObserver()
	off := cluster.Nodes[0].OnCommit(obs.onCommit)
	defer off()
	epoch, pk := cluster.EnvelopeKeyInfo()

	warm := window / 3
	if warm < 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	// Stock enough sealed transactions that the feeder never runs dry at
	// the cell's cadence ceiling (depth × 400 tps), with margin for warmup.
	// Pre-sealing runs before the driver starts: it saturates the container's
	// single core, and a saturated core starves consensus heartbeats into
	// spurious view changes.
	need := int(float64(c.depth)*450*(warm+window+500*time.Millisecond).Seconds()) + 1200
	stock, err := pregenPipelineTxs(pk, epoch, addr, confidential, c.hot, need)
	if err != nil {
		return plRow{}, err
	}

	stopDriver := cluster.StartDriver(40 * time.Millisecond)
	defer stopDriver()

	// Feeder: keep the leader's pools deeper than one full window of
	// proposals and pre-verify aggressively — the driver's own per-tick
	// verification budget (2 blocks) was sized for the serialized mode.
	// The leader is re-resolved every pass: if a view change moves
	// leadership mid-cell, feeding the old leader would quietly throttle
	// the whole sweep to its gossip-fed 2-blocks-per-tick trickle.
	floor := c.depth * 80
	if floor < 256 {
		floor = 256
	}
	stopFeed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopFeed:
				return
			default:
			}
			leader := cluster.Leader()
			for leader.VerifiedPoolLen()+leader.UnverifiedPoolLen() < floor {
				batch := takeStock(stock, 64)
				if len(batch) == 0 {
					break
				}
				for _, tx := range batch {
					obs.note(tx.Hash())
				}
				leader.SubmitTxBatch(batch)
			}
			leader.PreVerifyPending()
			time.Sleep(time.Millisecond)
		}
	}()

	if plDebug {
		go func() {
			for {
				select {
				case <-stopFeed:
					return
				case <-time.After(2 * time.Millisecond):
				}
				ld := cluster.Leader()
				fmt.Printf("dbg: verified=%d consensusBacklog=%d height=%d\n",
					ld.VerifiedPoolLen(), ld.ConsensusBacklog(), ld.Height())
			}
		}()
	}
	time.Sleep(warm)
	before := metrics.Default().Snapshot()
	heightBefore := cluster.Nodes[0].Height()
	obs.begin()
	start := time.Now()
	time.Sleep(window)
	elapsed := time.Since(start).Seconds()
	committed, lat := obs.end()
	heightAfter := cluster.Nodes[0].Height()
	after := metrics.Default().Snapshot()
	close(stopFeed)
	wg.Wait()

	spec := counterFamily(after, "confide_node_occ_speculative_total") - counterFamily(before, "confide_node_occ_speculative_total")
	conf := counterFamily(after, "confide_node_occ_conflicts_total") - counterFamily(before, "confide_node_occ_conflicts_total")
	busyMicros := counterFamily(after, "confide_pipeline_lane_busy_microseconds_total") - counterFamily(before, "confide_pipeline_lane_busy_microseconds_total")
	row := plRow{
		Mode:         c.mode,
		Depth:        c.depth,
		Workers:      c.workers,
		HotProb:      c.hot,
		Seconds:      elapsed,
		Blocks:       heightAfter - heightBefore,
		CommittedTPS: float64(committed) / elapsed,
		Speculated:   spec,
		Conflicts:    conf,
	}
	if spec > 0 {
		row.ConflictRate = float64(conf) / float64(spec)
	}
	if c.workers > 1 {
		// Lane occupancy across the whole cluster: busy lane-time over the
		// window's total lane capacity (4 nodes × workers lanes).
		row.LaneBusyPct = 100 * float64(busyMicros) / (elapsed * 1e6 * float64(c.workers) * 4)
	}
	row.CommitP50Ms, row.CommitP95Ms, _ = latencyPercentiles(lat)
	return row, nil
}

// takeStock drains up to n pre-sealed transactions without blocking.
func takeStock(stock chan *chain.Tx, n int) []*chain.Tx {
	var out []*chain.Tx
	for len(out) < n {
		select {
		case tx := <-stock:
			out = append(out, tx)
		default:
			return out
		}
	}
	return out
}

// pregenPipelineTxs seals count ABS transfers at the given hot-key
// probability ahead of the measurement window.
func pregenPipelineTxs(pk []byte, epoch uint64, addr chain.Address, confidential bool, hotProb float64, count int) (chan *chain.Tx, error) {
	out := make(chan *chain.Tx, count)
	workers := 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cc, err := core.NewClient(pk)
		if err != nil {
			return nil, err
		}
		cc.SetEnvelopeKey(epoch, pk)
		n := count / workers
		if w == 0 {
			n += count % workers
		}
		rng := rand.New(rand.NewSource(int64(w) + 2001))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				asset := workload.MakeAssetFlatHot(rng, 128, hotProb)
				var tx *chain.Tx
				var err error
				if confidential {
					tx, _, err = cc.NewConfidentialTx(addr, "transfer", asset)
				} else {
					tx, err = cc.NewPublicTx(addr, "transfer", asset)
				}
				if err != nil {
					errCh <- err
					return
				}
				out <- tx
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return out, nil
}

// counterFamily sums every series of one counter family in a snapshot.
func counterFamily(s metrics.Snapshot, family string) uint64 {
	var total uint64
	for series, v := range s.Counters {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if name == family {
			total += v
		}
	}
	return total
}
