// Command confide-node boots an in-process CONFIDE consortium network,
// drives a workload through it, and reports throughput, enclave statistics
// and the engine operation profile — a one-command demonstration of the
// full platform.
//
// Usage:
//
//	confide-node                         # 4 nodes, 64 ABS transfers
//	confide-node -nodes 8 -txs 200
//	confide-node -workload scf -exec-workers 4
//	confide-node -workload json -vm evm  # run the baseline VM
//	confide-node -rotate 1 -epoch-window 2 -reseal-rate 512
//	confide-node -gateway :8440 -linger 10m   # serve the HTTP client edge
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"confide/internal/bench"
	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/gateway"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/tee"
	"confide/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 4, "replica count")
	txCount := flag.Int("txs", 64, "transactions to run")
	wl := flag.String("workload", "abs", "workload: abs, scf, concat, enotes, hash, json")
	vmName := flag.String("vm", "cvm", "contract VM: cvm or evm")
	storeDir := flag.String("store", "", "durable store directory (LSM; every commit fsyncs its WAL before it returns; browse it with confide-explorer)")
	ckptInterval := flag.Uint64("checkpoint-interval", 0, "export a sealed state checkpoint every N blocks (0 = off); enables snapshot fast-sync for lagging peers")
	retention := flag.Uint64("retention", 0, "with checkpoints on, prune block payloads older than N blocks (0 = keep full history)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090) for the duration of the run")
	linger := flag.Duration("linger", 0, "keep the process (and the -metrics endpoint) alive this long after the run")
	epochWindow := flag.Uint64("epoch-window", 0, "key-epoch acceptance window: envelopes up to N epochs behind current are accepted (0 = default)")
	resealRate := flag.Int("reseal-rate", 0, "background re-seal sweep budget in records/second after a rotation (0 = default, negative = disabled)")
	rotate := flag.Int("rotate", 0, "consensus-ordered key rotations to order mid-run (splits the workload into rotate+1 phases)")
	gatewayAddr := flag.String("gateway", "", "serve the client gateway (attested HTTP edge) on this base address, e.g. :8440 — node i listens on port+i (port 0 picks ephemeral ports); combine with -linger to keep serving remote clients after the built-in workload")
	gatewayRate := flag.Float64("gateway-rate", 0, "gateway per-client admission rate in tx/s, token-bucket with 2x burst (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful gateway shutdown bound: in-flight requests get this long to finish after new submissions start being refused")
	pipelineDepth := flag.Int("pipeline-depth", 1, "consensus proposals a leader keeps in flight ahead of execution (the window; 1 = propose the next block once the previous one is delivered)")
	execWorkers := flag.Int("exec-workers", 1, "execution parallelism: OCC lanes for the speculative pass (1 = none, each transaction executes once in block order); any mix across replicas commits identical state")
	noCompile := flag.Bool("no-compile", false, "disable the deploy-time CVM compiler; every transaction runs on the interpreter (replicas with and without this flag stay byte-identical)")
	flag.Parse()

	if *metricsAddr != "" {
		stop, url, err := serveMetrics(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Printf("metrics: %s/metrics (pprof at %s/debug/pprof/)\n", url, url)
	}

	vm := core.VMCVM
	if *vmName == "evm" {
		vm = core.VMEVM
	}

	source, gen, err := pickWorkload(*wl)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("booting %d-node network (K-Protocol: decentralized MAP)...\n", *nodes)
	engineOpts := core.AllOptimizations()
	engineOpts.EpochWindow = *epochWindow
	if *noCompile {
		engineOpts.Compile = false
	}
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: *nodes,
		Node: node.Config{
			BlockMaxTxs:        32,
			EngineOpts:         engineOpts,
			CheckpointInterval: *ckptInterval,
			Retention:          *retention,
			ResealRate:         *resealRate,
			PipelineDepth:      *pipelineDepth,
			ExecWorkers:        *execWorkers,
		},
		Enclave:          tee.Config{InjectDelays: true},
		StoreReadLatency: 200 * time.Microsecond,
		StoreDir:         *storeDir,
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	// Nodes cut their own blocks, for the workload below and gateway clients alike.
	defer cluster.StartDriver(0)()
	// Block timings and the engine operation profile are registry deltas from
	// here: every node's blocks and every replica's engines count.
	before := metrics.Default().Snapshot()

	if *gatewayAddr != "" {
		gateways, err := serveGateways(cluster, *gatewayAddr, *gatewayRate, *drainTimeout)
		if err != nil {
			fatal(err)
		}
		defer func() {
			for _, gw := range gateways {
				gw.Close() // graceful: refuse new work, drain in-flight
			}
		}()
	}

	addr := chain.AddressFromBytes([]byte("demo-contract"))
	owner := chain.AddressFromBytes([]byte("demo-owner"))
	code, err := workload.Compile(source, vm)
	if err != nil {
		fatal(err)
	}
	if err := cluster.DeployEverywhere(addr, owner, vm, code, true, 1); err != nil {
		fatal(err)
	}
	clientEpoch, clientPK := cluster.EnvelopeKeyInfo()
	client, err := core.NewClient(clientPK)
	if err != nil {
		fatal(err)
	}
	client.SetEnvelopeKey(clientEpoch, clientPK)

	// SCF needs its service suite wired up.
	if *wl == "scf" {
		if addr, err = deploySCF(cluster, client); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("submitting %d confidential %s transactions...\n", *txCount, *wl)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	hashes := make([]chain.Hash, 0, *txCount)
	keys := make([][]byte, 0, *txCount) // hashes[i]'s k_tx: its receipt opens with nothing else
	phases := *rotate + 1
	if phases > *txCount {
		fatal(fmt.Errorf("need at least one transaction per rotation phase (%d txs, %d phases)", *txCount, phases))
	}
	start := time.Now()
	for p := 0; p < phases; p++ {
		// Refresh the client onto the cluster's current epoch. Right after a
		// rotation is ordered this is still the old epoch — those envelopes
		// ride the acceptance window across the activation height.
		epoch, pk := cluster.EnvelopeKeyInfo()
		client.SetEnvelopeKey(epoch, pk)

		n := *txCount / phases
		if p == phases-1 {
			n = *txCount - n*(phases-1)
		}
		for i := 0; i < n; i++ {
			method, args := gen(rng)
			tx, ktx, err := client.NewConfidentialTx(addr, method, args...)
			if err != nil {
				fatal(err)
			}
			if err := cluster.Leader().SubmitTx(tx); err != nil {
				fatal(err)
			}
			hashes, keys = append(hashes, tx.Hash()), append(keys, ktx)
		}
		if err := cluster.WaitIdle(time.Minute); err != nil {
			fatal(err)
		}
		if p < phases-1 {
			_, rot, err := cluster.RotateEpoch(2)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("rotation: epoch %d ordered, activation at height %d\n", rot.NewEpoch, rot.ActivationHeight)
			// Commit the governance transaction; the next phase's traffic
			// carries the chain past the activation height.
			if err := cluster.WaitIdle(time.Minute); err != nil {
				fatal(err)
			}
		}
	}
	elapsed := time.Since(start)

	committed, ok, failed := 0, 0, 0
	for i, h := range hashes {
		rpt, err := cluster.Leader().Receipt(h, keys[i])
		if err == nil {
			committed++
		}
		if err == nil && rpt.Status == chain.ReceiptOK {
			ok++
		} else {
			failed++
		}
	}
	fmt.Printf("\ncommitted %d txs in %v → %.1f tps (%d ok, %d failed)\n",
		committed, elapsed.Round(time.Millisecond), float64(committed)/elapsed.Seconds(), ok, failed)

	leader := cluster.Leader()
	after := metrics.Default().Snapshot()
	fmt.Printf("blocks: %d per node   mean block exec: %.2f ms   mean block commit: %.3f ms\n",
		(after.CounterSum("confide_node_blocks_committed_total")-before.CounterSum("confide_node_blocks_committed_total"))/uint64(*nodes),
		1e3*after.MeanSince(before, "confide_node_block_execute_seconds"),
		1e3*after.MeanSince(before, "confide_node_block_commit_seconds"))
	if *ckptInterval > 0 {
		fmt.Printf("checkpoints: every %d blocks, retained payload floor at height %d\n",
			*ckptInterval, leader.PrunedTo())
	}
	enclave := leader.ConfidentialEngine().Enclave().Stats()
	fmt.Printf("enclave: %d ecalls, %d ocalls, %d page swaps, %.1fM cycles charged\n",
		enclave.Ecalls, enclave.Ocalls, enclave.PageSwaps, float64(enclave.ChargedCycles)/1e6)
	if *rotate > 0 {
		snap := metrics.Default().Snapshot()
		fmt.Printf("key epochs: current %d (window %d), %d ring advance(s), %d record(s) re-sealed, %d stale rejection(s)\n",
			cluster.CurrentEpoch(), leader.ConfidentialEngine().EpochWindow(),
			snap.CounterSum("confide_keyepoch_rotations_total"),
			snap.CounterSum("confide_keyepoch_resealed_records_total"),
			snap.CounterSum("confide_keyepoch_stale_envelope_rejections_total"))
	}
	fmt.Printf("\nengine operation profile (every replica in this process):\n%s",
		bench.RenderOpProfile(bench.OpProfile(before, after)))

	if *metricsAddr != "" {
		fmt.Printf("\nmetrics registry snapshot:\n%s", metrics.Default().Summary())
		if *linger > 0 {
			fmt.Printf("holding the metrics endpoint open for %v...\n", *linger)
			time.Sleep(*linger)
		}
	}
}

// serveGateways starts one client gateway per node. With a non-zero port in
// base, node i serves on port+i; port 0 lets every node pick an ephemeral
// port. Either way the bound URLs are printed.
func serveGateways(cluster *node.Cluster, base string, rate float64, drain time.Duration) ([]*gateway.Gateway, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("-gateway %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 {
		return nil, fmt.Errorf("-gateway %q: bad port", base)
	}
	var gws []*gateway.Gateway
	for i, nd := range cluster.Nodes {
		addr := net.JoinHostPort(host, "0")
		if port > 0 {
			addr = net.JoinHostPort(host, strconv.Itoa(port+i))
		}
		gw, err := gateway.Serve(gateway.Config{
			Node:         nd,
			Addr:         addr,
			RateLimit:    rate,
			DrainTimeout: drain,
		})
		if err != nil {
			for _, g := range gws {
				g.Kill()
			}
			return nil, err
		}
		fmt.Printf("gateway: node %d serving %s\n", i, gw.URL())
		gws = append(gws, gw)
	}
	return gws, nil
}

// serveMetrics mounts the registry's Prometheus handler and the pprof suite
// on a dedicated listener. It returns a shutdown func and the base URL.
func serveMetrics(addr string) (func(), string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Default().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return func() { _ = srv.Close() }, "http://" + ln.Addr().String(), nil
}

func pickWorkload(name string) (string, func(*rand.Rand) (string, [][]byte), error) {
	switch name {
	case "abs":
		return workload.ABSTransferFlatSrc, workload.ABSFlatInput, nil
	case "scf":
		return workload.SCFGatewaySrc, workload.SCFTransferInput, nil
	case "concat":
		return workload.StringConcatSrc, workload.StringConcatInput, nil
	case "enotes":
		return workload.ENotesSrc, workload.ENotesInput, nil
	case "hash":
		return workload.CryptoHashSrc, workload.CryptoHashInput, nil
	case "json":
		return workload.JSONParseSrc, workload.JSONParseInput, nil
	}
	return "", nil, fmt.Errorf("unknown workload %q", name)
}

// deploySCF wires the gateway→manager→service suite across the cluster and
// returns the gateway address transactions should target.
func deploySCF(cluster *node.Cluster, client *core.Client) (chain.Address, error) {
	owner := chain.AddressFromBytes([]byte("demo-owner"))
	wires, err := bench.DeploySCF(client, func(addr chain.Address, code []byte) error {
		return cluster.DeployEverywhere(addr, owner, core.VMCVM, code, true, 1)
	})
	if err != nil {
		return bench.SCFGateway, err
	}
	for _, tx := range wires {
		if err := cluster.Leader().SubmitTx(tx); err != nil {
			return bench.SCFGateway, err
		}
	}
	return bench.SCFGateway, cluster.WaitIdle(30 * time.Second)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confide-node:", err)
	os.Exit(1)
}
