// Package bench implements the paper's evaluation section: one driver per
// table/figure, shared by the repository's testing.B benchmarks and the
// cmd/benchrunner tool. Absolute numbers differ from the paper (its
// substrate was a 4-node Xeon/SGX cluster; ours is a calibrated simulator),
// but each experiment reproduces the published *shape* — who wins, by
// roughly what factor, and where the knees are.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/kms"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/p2p"
	"confide/internal/storage"
	"confide/internal/tee"
	"confide/internal/workload"
)

var (
	contractAddr = chain.AddressFromBytes([]byte("bench-contract"))
	ownerAddr    = chain.AddressFromBytes([]byte("bench-owner"))
)

// sharedSecrets amortizes key generation across experiment cells. Drivers
// run concurrently under `go test -bench` and from benchrunner goroutines,
// so initialization is guarded by a sync.Once rather than a naked nil check.
var (
	sharedSecrets     *kms.Secrets
	sharedSecretsErr  error
	sharedSecretsOnce sync.Once
)

func secrets() (*kms.Secrets, error) {
	sharedSecretsOnce.Do(func() {
		sharedSecrets, sharedSecretsErr = kms.GenerateSecrets()
	})
	return sharedSecrets, sharedSecretsErr
}

// newEngine builds a standalone confidential engine with TEE delay
// injection (experiments measure the cost of confidentiality, so the
// simulated hardware tax must consume wall-clock time).
func newEngine(opts core.Options, store storage.KVStore) (*core.Engine, error) {
	s, err := secrets()
	if err != nil {
		return nil, err
	}
	root, err := tee.NewRootOfTrust()
	if err != nil {
		return nil, err
	}
	return core.NewConfidentialEngine(tee.NewPlatform(root), s, store,
		tee.Config{InjectDelays: true}, opts)
}

// makeTxs pre-builds n sealed transactions (client-side sealing is not part
// of any measured region).
func makeTxs(client *core.Client, addr chain.Address, gen func(*rand.Rand) (string, [][]byte), n int, seed int64) ([]*chain.Tx, error) {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]*chain.Tx, 0, n)
	for i := 0; i < n; i++ {
		method, args := gen(rng)
		tx, _, err := client.NewConfidentialTx(addr, method, args...)
		if err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// ---------------------------------------------------------------------------
// Figure 10: throughput of the four Synthetic workloads on
// {EVM, CONFIDE-VM} × {public, confidential(TEE)}.
// ---------------------------------------------------------------------------

// Fig10Row is one bar of Figure 10.
type Fig10Row struct {
	Workload string
	Engine   string // "EVM" or "CONFIDE-VM"
	TEE      bool
	TPS      float64
}

// Fig10Config parameterizes the experiment.
type Fig10Config struct {
	// Nodes in the cluster (paper: 4).
	Nodes int
	// TxsPerCell per measurement (higher = steadier).
	TxsPerCell int
}

// DefaultFig10 returns paper-faithful parameters scaled for a laptop run.
func DefaultFig10() Fig10Config { return Fig10Config{Nodes: 4, TxsPerCell: 24} }

// Figure10 measures end-to-end cluster throughput for every cell.
func Figure10(cfg Fig10Config) ([]Fig10Row, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultFig10()
	}
	var rows []Fig10Row
	for _, w := range workload.SyntheticWorkloads() {
		for _, vm := range []core.VMKind{core.VMEVM, core.VMCVM} {
			for _, confidential := range []bool{false, true} {
				tps, err := clusterThroughput(clusterParams{
					nodes:        cfg.Nodes,
					vm:           vm,
					confidential: confidential,
					source:       w.Source,
					gen:          w.Input,
					txs:          cfg.TxsPerCell,
					parallel:     1,
				})
				if err != nil {
					return nil, fmt.Errorf("fig10 %s: %w", w.Name, err)
				}
				engine := "CONFIDE-VM"
				if vm == core.VMEVM {
					engine = "EVM"
				}
				rows = append(rows, Fig10Row{Workload: w.Name, Engine: engine, TEE: confidential, TPS: tps})
			}
		}
	}
	return rows, nil
}

// clusterParams is the shared cluster-throughput harness.
type clusterParams struct {
	nodes        int
	zones        []int
	network      p2p.Config
	vm           core.VMKind
	confidential bool
	source       string
	gen          func(*rand.Rand) (string, [][]byte)
	txs          int
	parallel     int
	readLatency  time.Duration
	writeLatency time.Duration
}

func clusterThroughput(p clusterParams) (float64, error) {
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes:   p.nodes,
		Zones:   p.zones,
		Network: p.network,
		Node: node.Config{
			BlockMaxTxs: 32,
			ExecWorkers: p.parallel,
			EngineOpts:  core.AllOptimizations(),
		},
		Enclave:           tee.Config{InjectDelays: true},
		StoreReadLatency:  p.readLatency,
		StoreWriteLatency: p.writeLatency,
	})
	if err != nil {
		return 0, err
	}
	defer cluster.Close()

	code, err := workload.Compile(p.source, p.vm)
	if err != nil {
		return 0, err
	}
	if err := cluster.DeployEverywhere(contractAddr, ownerAddr, p.vm, code, p.confidential, 1); err != nil {
		return 0, err
	}
	var client *core.Client
	if p.confidential {
		client, err = core.NewClient(cluster.EnvelopePublicKey())
	} else {
		client, err = core.NewClient(nil)
	}
	if err != nil {
		return 0, err
	}

	rng := rand.New(rand.NewSource(11))
	// build seals n transactions and keeps each one's k_tx (nil for a public
	// one): the run's receipts are read back with them.
	build := func(n int) ([]*chain.Tx, [][]byte, error) {
		txs, keys := make([]*chain.Tx, n), make([][]byte, n)
		for i := range txs {
			method, args := p.gen(rng)
			if p.confidential {
				txs[i], keys[i], err = client.NewConfidentialTx(contractAddr, method, args...)
			} else {
				txs[i], err = client.NewPublicTx(contractAddr, method, args...)
			}
			if err != nil {
				return nil, nil, err
			}
		}
		return txs, keys, nil
	}
	leader := cluster.Leader()
	// run submits txs and times the proposer loops from an idle start until
	// the cluster has drained them: pre-verification overlaps the ordering of
	// earlier blocks as in Figure 7, inside the timed region. The pool is
	// filled before the driver starts, so a cell of one block's worth or
	// less is cut as one block.
	run := func(txs []*chain.Tx) (time.Duration, error) {
		for _, tx := range txs {
			if err := leader.SubmitTx(tx); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		stop := cluster.StartDriver(0)
		defer stop()
		err := cluster.WaitIdle(30 * time.Second)
		return time.Since(start), err
	}

	// Warm-up block: populates code caches and JIT-warms the Go runtime so
	// the measured region reflects steady state.
	warm, _, err := build(2)
	if err != nil {
		return 0, err
	}
	if _, err := run(warm); err != nil {
		return 0, err
	}

	txs, keys, err := build(p.txs)
	if err != nil {
		return 0, err
	}
	elapsed, err := run(txs)
	if err != nil {
		return 0, err
	}
	// Verify no transaction failed (a failing workload would report a
	// flattering TPS).
	for i, tx := range txs {
		rpt, err := leader.Receipt(tx.Hash(), keys[i])
		if err != nil {
			return 0, fmt.Errorf("bench: receipt of %s: %w", tx.Hash(), err)
		}
		if rpt.Status != chain.ReceiptOK {
			return 0, fmt.Errorf("bench: transaction failed: %s", rpt.Output)
		}
	}
	return float64(p.txs) / elapsed.Seconds(), nil
}

// ---------------------------------------------------------------------------
// Figure 11: scalability of the ABS workload with node count, parallel
// execution ways, and single- vs two-zone networks.
// ---------------------------------------------------------------------------

// Fig11Row is one point of Figure 11.
type Fig11Row struct {
	Nodes    int
	Parallel int
	Zones    int
	TPS      float64
}

// Fig11Config parameterizes the experiment.
type Fig11Config struct {
	NodeCounts []int
	Parallel   []int
	TxsPerCell int
	// IncludeTwoZone adds the Shanghai/Beijing-style 1:2 split series.
	IncludeTwoZone bool
}

// DefaultFig11 scales the paper's grid for a laptop run.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		NodeCounts:     []int{4, 8, 12, 16, 20},
		Parallel:       []int{1, 4, 6},
		TxsPerCell:     24,
		IncludeTwoZone: true,
	}
}

// twoZoneSplit assigns nodes to two cities at the paper's 1:2 ratio.
func twoZoneSplit(n int) []int {
	zones := make([]int, n)
	for i := range zones {
		if i < n/3 {
			zones[i] = 0 // the smaller city
		} else {
			zones[i] = 1
		}
	}
	return zones
}

// Figure11 measures ABS throughput across the scalability grid.
func Figure11(cfg Fig11Config) ([]Fig11Row, error) {
	if len(cfg.NodeCounts) == 0 {
		cfg = DefaultFig11()
	}
	intraZone := p2p.LinkProfile{Latency: 200 * time.Microsecond, BytesPerSec: 1 << 30}
	crossZone := p2p.LinkProfile{Latency: 6 * time.Millisecond, BytesPerSec: 16 << 20}

	var rows []Fig11Row
	run := func(nodes, parallel, zoneCount int, zones []int, network p2p.Config) error {
		tps, err := clusterThroughput(clusterParams{
			nodes:        nodes,
			zones:        zones,
			network:      network,
			vm:           core.VMCVM,
			confidential: true,
			source:       workload.ABSTransferFlatSrc,
			gen:          workload.ABSFlatInputSmall,
			txs:          cfg.TxsPerCell,
			parallel:     parallel,
			readLatency:  2 * time.Millisecond, // cloud KV store cold read
		})
		if err != nil {
			return err
		}
		rows = append(rows, Fig11Row{Nodes: nodes, Parallel: parallel, Zones: zoneCount, TPS: tps})
		return nil
	}

	for _, nodes := range cfg.NodeCounts {
		for _, parallel := range cfg.Parallel {
			if err := run(nodes, parallel, 1, nil, p2p.Config{IntraZone: intraZone, CrossZone: intraZone}); err != nil {
				return nil, fmt.Errorf("fig11 n=%d p=%d: %w", nodes, parallel, err)
			}
		}
		if cfg.IncludeTwoZone {
			if err := run(nodes, 4, 2, twoZoneSplit(nodes), p2p.Config{IntraZone: intraZone, CrossZone: crossZone}); err != nil {
				return nil, fmt.Errorf("fig11 two-zone n=%d: %w", nodes, err)
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 1: operation profile of one SCF-AR asset transfer.
// ---------------------------------------------------------------------------

// Table1Result carries the profile snapshot and its rendered table.
type Table1Result struct {
	Rendered string
	Profile  map[string]core.ProfileEntry
}

// Table1 runs one production-shaped SCF-AR transfer through the
// hierarchical contract suite and reports the engine's operation profile.
func Table1() (*Table1Result, error) {
	store := storage.NewMemStore()
	store.SetReadLatency(50 * time.Microsecond) // cloud KV store
	engine, err := newEngine(core.AllOptimizations(), store)
	if err != nil {
		return nil, err
	}
	gateway := chain.AddressFromBytes([]byte("scf-gateway"))
	manager := chain.AddressFromBytes([]byte("scf-manager"))
	service := chain.AddressFromBytes([]byte("scf-service"))
	for _, c := range []struct {
		addr chain.Address
		src  string
	}{
		{gateway, workload.SCFGatewaySrc},
		{manager, workload.SCFManagerSrc},
		{service, workload.SCFServiceSrc},
	} {
		code, err := workload.CompileCVM(c.src)
		if err != nil {
			return nil, err
		}
		if err := engine.DeployContract(c.addr, ownerAddr, core.VMCVM, code, true, 1); err != nil {
			return nil, err
		}
	}
	client, err := core.NewClient(engine.EnvelopePublicKey())
	if err != nil {
		return nil, err
	}
	commit := func(res *core.ExecResult) error {
		var batch storage.Batch
		err := res.AppendWrites(&batch)
		if err == nil {
			err = store.WriteBatch(&batch)
		}
		engine.SettleWrites(err == nil)
		return err
	}
	for _, wire := range []struct{ to, val chain.Address }{
		{gateway, manager}, {manager, service},
	} {
		tx, _, err := client.NewConfidentialTx(wire.to, "init", wire.val[:])
		if err != nil {
			return nil, err
		}
		res, err := engine.Execute(tx)
		if err != nil {
			return nil, err
		}
		if err := commit(res); err != nil {
			return nil, err
		}
	}

	engine.Profile().Reset()
	rng := rand.New(rand.NewSource(3))
	method, args := workload.SCFTransferInput(rng)
	tx, _, err := client.NewConfidentialTx(gateway, method, args...)
	if err != nil {
		return nil, err
	}
	// Pre-verification runs ahead of execution, as in production.
	engine.PreVerifyBatch([]*chain.Tx{tx})
	res, err := engine.Execute(tx)
	if err != nil {
		return nil, err
	}
	if res.Receipt.Status != chain.ReceiptOK {
		return nil, fmt.Errorf("bench: SCF transfer failed: %s", res.Receipt.Output)
	}
	return &Table1Result{
		Rendered: engine.Profile().Table(),
		Profile:  engine.Profile().Snapshot(),
	}, nil
}

// ---------------------------------------------------------------------------
// Figure 12: cumulative optimization ablation on the ABS contract.
// ---------------------------------------------------------------------------

// Fig12Row is one bar of Figure 12.
type Fig12Row struct {
	Config  string
	TPS     float64
	Speedup float64 // vs the Base row
}

// Fig12Config parameterizes the ablation.
type Fig12Config struct {
	Txs int
}

// DefaultFig12 returns laptop-scaled parameters.
func DefaultFig12() Fig12Config { return Fig12Config{Txs: 48} }

// fig12Cell describes one cumulative configuration.
type fig12Cell struct {
	name      string
	opts      core.Options
	source    string
	gen       func(*rand.Rand) (string, [][]byte)
	preVerify bool
}

// Figure12 measures execution-phase throughput of the ABS transfer under
// cumulative optimizations: Base → OPT1 (code cache + memory pool) → OPT2
// (Flatbuffers-style encoding replaces JSON) → OPT3 (pre-verification keeps
// envelope opening off the execution path) → OPT4 (reduced instruction set
// + superinstruction fusion).
func Figure12(cfg Fig12Config) ([]Fig12Row, error) {
	if cfg.Txs == 0 {
		cfg = DefaultFig12()
	}
	cells := []fig12Cell{
		{
			name:   "Base",
			opts:   core.Options{},
			source: workload.ABSTransferJSONSrc,
			gen:    workload.ABSJSONInput,
		},
		{
			name:   "+OPT1 code cache & memory mgmt",
			opts:   core.Options{CodeCache: true, MemPool: true},
			source: workload.ABSTransferJSONSrc,
			gen:    workload.ABSJSONInput,
		},
		{
			name:   "+OPT2 Flatbuffers encoding",
			opts:   core.Options{CodeCache: true, MemPool: true},
			source: workload.ABSTransferFlatSrc,
			gen:    workload.ABSFlatInput,
		},
		{
			name:      "+OPT3 pre-verification",
			opts:      core.Options{CodeCache: true, MemPool: true, PreVerify: true},
			source:    workload.ABSTransferFlatSrc,
			gen:       workload.ABSFlatInput,
			preVerify: true,
		},
		{
			name:      "+OPT4 instruction fusion",
			opts:      core.Options{CodeCache: true, MemPool: true, PreVerify: true, Fuse: true},
			source:    workload.ABSTransferFlatSrc,
			gen:       workload.ABSFlatInput,
			preVerify: true,
		},
		{
			name:      "+compile (AOT closure threading)",
			opts:      core.Options{CodeCache: true, MemPool: true, PreVerify: true, Fuse: true, Compile: true},
			source:    workload.ABSTransferFlatSrc,
			gen:       workload.ABSFlatInput,
			preVerify: true,
		},
	}
	var rows []Fig12Row
	base := 0.0
	for _, cell := range cells {
		tps, err := fig12Cell_run(cell, cfg.Txs)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", cell.name, err)
		}
		if base == 0 {
			base = tps
		}
		rows = append(rows, Fig12Row{Config: cell.name, TPS: tps, Speedup: tps / base})
	}
	return rows, nil
}

func fig12Cell_run(cell fig12Cell, txCount int) (float64, error) {
	store := storage.NewMemStore()
	engine, err := newEngine(cell.opts, store)
	if err != nil {
		return 0, err
	}
	code, err := workload.CompileCVM(cell.source)
	if err != nil {
		return 0, err
	}
	if err := engine.DeployContract(contractAddr, ownerAddr, core.VMCVM, code, true, 1); err != nil {
		return 0, err
	}
	client, err := core.NewClient(engine.EnvelopePublicKey())
	if err != nil {
		return 0, err
	}
	txs, err := makeTxs(client, contractAddr, cell.gen, txCount, 21)
	if err != nil {
		return 0, err
	}
	// Pre-verification overlaps the ordering phase in production, so it
	// stays outside the measured execution window when enabled.
	if cell.preVerify {
		engine.PreVerifyBatch(txs)
	}
	start := time.Now()
	for _, tx := range txs {
		res, err := engine.Execute(tx)
		if err != nil {
			return 0, err
		}
		if res.Receipt.Status != chain.ReceiptOK {
			return 0, fmt.Errorf("tx failed: %s", res.Receipt.Output)
		}
		var batch storage.Batch
		err = res.AppendWrites(&batch)
		if err == nil {
			err = store.WriteBatch(&batch)
		}
		engine.SettleWrites(err == nil)
		if err != nil {
			return 0, err
		}
	}
	return float64(txCount) / time.Since(start).Seconds(), nil
}

// ---------------------------------------------------------------------------
// §6.4 production metrics: block execution / empty block / block write.
// ---------------------------------------------------------------------------

// ProdMetrics reports the three §6.4 production numbers.
type ProdMetrics struct {
	AvgBlockExecution time.Duration // paper: ≈30 ms
	AvgEmptyBlock     time.Duration // paper: ≈5 ms
	AvgBlockWrite     time.Duration // paper: ≈6 ms (cloud SSD)
}

// ProductionMetrics drives ABS batches through a 4-node cluster with a
// cloud-SSD write model and measures block timings.
func ProductionMetrics() (*ProdMetrics, error) {
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes: 4,
		Node: node.Config{
			BlockMaxTxs: 16,
			ExecWorkers: 4,
			EngineOpts:  core.AllOptimizations(),
		},
		Enclave:           tee.Config{InjectDelays: true},
		StoreReadLatency:  300 * time.Microsecond,
		StoreWriteLatency: 6 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	code, err := workload.CompileCVM(workload.ABSTransferFlatSrc)
	if err != nil {
		return nil, err
	}
	if err := cluster.DeployEverywhere(contractAddr, ownerAddr, core.VMCVM, code, true, 1); err != nil {
		return nil, err
	}
	client, err := core.NewClient(cluster.EnvelopePublicKey())
	if err != nil {
		return nil, err
	}
	txs, err := makeTxs(client, contractAddr, workload.ABSFlatInput, 48, 17)
	if err != nil {
		return nil, err
	}
	// The registry sums every node's blocks, so its deltas average over the
	// four replicas' executions and writes.
	before := metrics.Default().Snapshot()
	for _, tx := range txs {
		if err := cluster.Leader().SubmitTx(tx); err != nil {
			return nil, err
		}
	}
	stop := cluster.StartDriver(0)
	err = cluster.WaitIdle(30 * time.Second)
	stop()
	if err != nil {
		return nil, err
	}
	full := metrics.Default().Snapshot()

	// Empty blocks: exact rounds with the proposers stopped.
	emptyStart := time.Now()
	const emptyRounds = 5
	for i := 0; i < emptyRounds; i++ {
		if _, err := cluster.ProcessRound(10 * time.Second); err != nil {
			return nil, err
		}
	}
	emptyAvg := time.Since(emptyStart) / emptyRounds
	all := metrics.Default().Snapshot()

	return &ProdMetrics{
		AvgBlockExecution: time.Duration(full.MeanSince(before, "confide_node_block_execute_seconds") * float64(time.Second)),
		AvgEmptyBlock:     emptyAvg,
		AvgBlockWrite:     time.Duration(all.MeanSince(before, "confide_node_block_commit_seconds") * float64(time.Second)),
	}, nil
}
