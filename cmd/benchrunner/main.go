// Command benchrunner regenerates every table and figure of the paper's
// evaluation section and prints them as text rows.
//
// Usage:
//
//	benchrunner -exp all          # everything (default)
//	benchrunner -exp fig10        # Figure 10: VM × confidentiality
//	benchrunner -exp fig11        # Figure 11: scalability
//	benchrunner -exp table1       # Table 1: SCF-AR operation profile
//	benchrunner -exp fig12        # Figure 12: ABS optimization ablation
//	benchrunner -exp prod         # §6.4 production metrics
//	benchrunner -exp fig10 -txs 96  # more transactions per cell
//	benchrunner -exp overhead     # metrics-layer overhead guard (<2%)
//	benchrunner -exp fastsync     # wipe-rejoin: snapshot vs genesis replay
//	benchrunner -exp rotation     # key-epoch rotation under traffic + re-seal sweep
//	benchrunner -exp vmcompile    # CONFIDE-VM AOT compiler vs interpreter vs EVM (VM level)
//	benchrunner -exp fig10 -json  # also write BENCH_fig10.json (stamped with
//	                              # nproc, GOMAXPROCS, Go version, VCS revision)
//	benchrunner -chaos -seed 7    # liveness-under-faults drill
//	benchrunner -chaos -wipe 1    # …plus a wipe-and-rejoin (snapshot fast-sync)
//	benchrunner -chaos -rotations 1  # …plus a consensus-ordered key rotation
//	benchrunner -chaos -gwkills 2 # workload via HTTP gateways, two killed mid-run
//	benchrunner -chaos -crashes 3 -diskfaults  # power-cut crashes at named crash
//	                              # points with transient disk faults layered on
//	benchrunner -chaos -crashes 2 -pipeline-depth 8 -exec-workers 4  # …with a
//	                              # depth-8 window of blocks queued behind execution
//	benchrunner -exp fig10 -metrics  # append the registry summary table
//
// The drill behind -chaos is internal/chaos (chaos.Run).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"confide/internal/bench"
	"confide/internal/chaos"
	"confide/internal/metrics"
)

func main() {
	txs := flag.Int("txs", 0, "transactions per measurement cell (0 = experiment default)")
	quick := flag.Bool("quick", false, "shrink grids for a fast pass")
	showMetrics := flag.Bool("metrics", false, "print the metrics registry summary after the run")
	jsonOut := flag.Bool("json", false, "write BENCH_<exp>.json per experiment (rows + latency percentiles + sync times)")
	drill := flag.Bool("chaos", false, "run the chaos drill instead of the paper experiments")
	seed := flag.Int64("seed", 1, "chaos: fault-schedule seed")
	nodes := flag.Int("nodes", 4, "chaos: cluster size (4-7)")
	drop := flag.Float64("drop", 0.10, "chaos: global message drop rate")
	wipe := flag.Int("wipe", 0, "chaos: wipe-and-rejoin fault count (forces snapshot fast-sync)")
	rotations := flag.Int("rotations", 0, "chaos: consensus-ordered key rotations injected mid-run")
	gwkills := flag.Int("gwkills", 0, "chaos: route the workload through HTTP gateways and kill this many mid-run")
	crashes := flag.Int("crashes", 0, "chaos: crash-and-recover disk faults (kill at a random crash point, revive from the frozen disk image)")
	diskfaults := flag.Bool("diskfaults", false, "chaos: layer transient disk faults (ENOSPC, EIO, bit-flips, lying fsyncs) onto each crash window")
	pipeDepth := flag.Int("pipeline-depth", 0, "chaos: leader proposal window (0 = 1)")
	execWorkers := flag.Int("exec-workers", 0, "chaos: OCC speculation lanes per node (0/1 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	// Experiments outside "all" are opt-in: each needs its own cluster
	// shape or minutes of wall clock.
	type experiment struct {
		name  string
		inAll bool
		fn    func() (any, error)
	}
	experiments := []experiment{
		{"fig10", true, func() (any, error) { return runFig10(*txs) }},
		{"fig11", true, func() (any, error) { return runFig11(*txs, *quick) }},
		{"table1", true, runTable1},
		{"fig12", true, func() (any, error) { return runFig12(*txs) }},
		{"prod", true, runProd},
		{"overhead", false, func() (any, error) { return runOverhead(*txs, *quick) }},
		{"fastsync", false, func() (any, error) { return runFastSync(*txs) }},
		{"rotation", false, func() (any, error) { return runRotation(*txs) }},
		{"vmcompile", false, func() (any, error) { return runVMCompile(*txs) }},
	}
	expNames := "all"
	for _, e := range experiments {
		expNames += ", " + e.name
	}
	exp := flag.String("exp", "all", "experiment: "+expNames)
	flag.Parse()

	var selected []experiment
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			selected = append(selected, e)
		}
	}
	if !*drill && len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, expNames)
		os.Exit(2)
	}

	// The experiments run 4+ replicas and their load on two cores; the
	// default 100% GC target spends a visible slice of the measurement
	// window re-collecting a small, fast-churning heap. Trade heap
	// headroom for mutator time — harness-only, no library code changes.
	debug.SetGCPercent(400)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	if *drill {
		err := runChaos(*seed, *nodes, *txs, *drop, *wipe, *rotations, *gwkills, *crashes, *diskfaults, *pipeDepth, *execWorkers)
		if *showMetrics {
			fmt.Printf("\n=== metrics registry summary ===\n%s", metrics.Default().Summary())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for _, e := range selected {
		start := time.Now()
		rows, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			if err := writeBenchJSON(e.name, rows, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing json: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.name, elapsed.Round(time.Millisecond))
	}

	if *showMetrics {
		fmt.Printf("=== metrics registry summary ===\n%s", metrics.Default().Summary())
	}
}

func runOverhead(txs int, quick bool) (any, error) {
	fmt.Println("=== Metrics-layer overhead: instrumented vs no-op recorder ===")
	rounds := 3
	if quick {
		rounds = 1
	}
	res, err := bench.MetricsOverhead(txs, rounds)
	if err != nil {
		return nil, err
	}
	fmt.Println(res)
	if res.DeltaPct >= 2.0 {
		fmt.Println("WARNING: overhead exceeds the 2% budget")
	}
	return res, nil
}

func runFig10(txs int) (any, error) {
	cfg := bench.DefaultFig10()
	if txs > 0 {
		cfg.TxsPerCell = txs
	}
	fmt.Println("=== Figure 10: throughput on 4 Synthetic workloads (4 nodes) ===")
	rows, err := bench.Figure10(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-26s %-11s %-7s %10s\n", "Workload", "Engine", "Mode", "TPS")
	for _, r := range rows {
		mode := "public"
		if r.TEE {
			mode = "TEE"
		}
		fmt.Printf("%-26s %-11s %-7s %10.1f\n", r.Workload, r.Engine, mode, r.TPS)
	}
	return rows, nil
}

func runFig11(txs int, quick bool) (any, error) {
	cfg := bench.DefaultFig11()
	if txs > 0 {
		cfg.TxsPerCell = txs
	}
	if quick {
		cfg.NodeCounts = []int{4, 8}
	}
	fmt.Println("=== Figure 11: scalability, ABS workload ===")
	rows, err := bench.Figure11(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-7s %-9s %-6s %10s\n", "Nodes", "Parallel", "Zones", "TPS")
	for _, r := range rows {
		fmt.Printf("%-7d %-9d %-6d %10.1f\n", r.Nodes, r.Parallel, r.Zones, r.TPS)
	}
	return rows, nil
}

func runTable1() (any, error) {
	fmt.Println("=== Table 1: operations of one SCF-AR asset transfer ===")
	res, err := bench.Table1()
	if err != nil {
		return nil, err
	}
	fmt.Print(res.Rendered)
	return res, nil
}

func runFig12(txs int) (any, error) {
	cfg := bench.DefaultFig12()
	if txs > 0 {
		cfg.Txs = txs
	}
	fmt.Println("=== Figure 12: optimization ablation on the ABS contract ===")
	rows, err := bench.Figure12(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-36s %10s %9s\n", "Configuration", "TPS", "Speedup")
	for _, r := range rows {
		fmt.Printf("%-36s %10.1f %8.2fx\n", r.Config, r.TPS, r.Speedup)
	}
	return rows, nil
}

func runChaos(seed int64, nodes, txs int, drop float64, wipes, rotations, gwkills, crashes int, diskfaults bool, pipeDepth, execWorkers int) error {
	scenario := "leader crash + partition"
	if wipes > 0 {
		scenario += fmt.Sprintf(" + %d wipe-rejoin(s)", wipes)
	}
	if rotations > 0 {
		scenario += fmt.Sprintf(" + %d key rotation(s)", rotations)
	}
	if gwkills > 0 {
		scenario += fmt.Sprintf(" + %d gateway kill(s), workload via HTTP edge", gwkills)
	}
	if crashes > 0 {
		scenario += fmt.Sprintf(" + %d power-cut crash(es) at named crash points", crashes)
		if diskfaults {
			scenario += " with transient disk faults"
		}
	}
	if pipeDepth > 1 {
		scenario += fmt.Sprintf(" + pipelined ordering (depth %d, %d OCC lanes)", pipeDepth, execWorkers)
	}
	opts := chaos.Options{
		Nodes:         nodes,
		Txs:           txs, // 0 = default
		Seed:          seed,
		DropRate:      drop,
		WipeRejoins:   wipes,
		Rotations:     rotations,
		GatewayKills:  gwkills,
		Crashes:       crashes,
		DiskFaults:    diskfaults,
		PipelineDepth: pipeDepth,
		ExecWorkers:   execWorkers,
	}
	fmt.Printf("=== Chaos drill: %d nodes, seed %d, %.0f%% drop, %s ===\n",
		nodes, seed, drop*100, scenario)
	report, err := chaos.Run(opts)
	if err != nil {
		return err
	}
	for _, e := range report.Events {
		fmt.Println("  " + e)
	}
	fmt.Printf("converged in %v: %d txs committed on all %d nodes, height %d, %d view changes\n",
		report.Elapsed.Round(time.Millisecond), report.Txs, report.Nodes, report.Height, report.ViewChanges)
	fmt.Printf("header chain: %x (identical on every node)\n", report.HeaderChainHash[:8])
	s := report.Net
	fmt.Printf("network: %d sent, %d delivered, drops: %d rate / %d partition / %d crash / %d overflow, %d dup, %d reordered, %d consensus retransmission(s)\n",
		s.Sent, s.Delivered, s.RateDrops, s.PartitionDrops, s.CrashDrops, s.OverflowDrops, s.Duplicates, s.Reordered,
		report.Metrics["confide_consensus_retransmissions_total"])
	if wipes > 0 {
		fmt.Printf("snapshot rejoin: %d install(s), %d bad chunk(s) rejected, %d bad install(s)\n",
			report.Metrics["confide_snapshot_installs_total"],
			report.Metrics["confide_node_snapshot_bad_chunks_total"],
			report.Metrics["confide_node_snapshot_install_failures_total"])
	}
	if rotations > 0 {
		fmt.Printf("key rotation: %d ring advance(s) across the cluster, %d stale-envelope rejection(s)\n",
			report.Metrics["confide_keyepoch_rotations_total"],
			report.Metrics["confide_keyepoch_stale_envelope_rejections_total"])
	}
	if gwkills > 0 {
		fmt.Printf("gateway edge: %d request(s) served, %d tx(s) accepted across kills and failovers\n",
			report.Metrics["confide_gateway_requests_total"],
			report.Metrics["confide_gateway_accepted_txs_total"])
	}
	if crashes > 0 {
		d := report.Disk
		fmt.Printf("crash drill: %d crash recover(ies), %d quarantine(s), %d node fail-stop(s); sealed state re-verified on all %d nodes\n",
			report.Metrics["confide_node_crash_recoveries_total"],
			report.Metrics["confide_node_store_quarantines_total"],
			report.Metrics["confide_node_store_fatal_total"], report.Nodes)
		fmt.Printf("disk faults: %d torn tail(s), %d ENOSPC, %d read error(s), %d bit-flip(s), %d fsync lie(s), %d sticky store failure(s), %d read retr(ies)\n",
			d.TornTails, d.WriteErrs, d.ReadErrs, d.BitFlips, d.SyncLies,
			report.Metrics["confide_storage_sticky_failures_total"],
			report.Metrics["confide_storage_read_retries_total"])
	}
	return nil
}

func runVMCompile(txs int) (any, error) {
	cfg := bench.DefaultVMCompile()
	if txs > 0 {
		cfg.Txs = txs
	}
	fmt.Println("=== VM compile: AOT closure-threaded vs interpreted CONFIDE-VM vs EVM (VM level) ===")
	rows, err := bench.VMCompile(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-26s %12s %14s %14s %9s\n", "Workload", "EVM tx/s", "CVM-interp", "CVM-compiled", "Speedup")
	for _, r := range rows {
		fmt.Printf("%-26s %12.1f %14.1f %14.1f %8.2fx\n", r.Workload, r.EVMTPS, r.InterpTPS, r.CompiledTPS, r.Speedup)
	}
	return rows, nil
}

func runProd() (any, error) {
	fmt.Println("=== §6.4 production metrics (4 nodes, cloud-SSD model) ===")
	m, err := bench.ProductionMetrics()
	if err != nil {
		return nil, err
	}
	fmt.Printf("avg block execution: %8v   (paper: ~30 ms)\n", m.AvgBlockExecution.Round(100*time.Microsecond))
	fmt.Printf("avg empty block:     %8v   (paper: ~5 ms)\n", m.AvgEmptyBlock.Round(100*time.Microsecond))
	fmt.Printf("avg block write:     %8v   (paper: ~6 ms)\n", m.AvgBlockWrite.Round(100*time.Microsecond))
	return m, nil
}
