package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/storage"
	"confide/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 1: operation profile of one SCF-AR asset transfer.
// ---------------------------------------------------------------------------

// OpRow is one row of Table 1: how often an engine operation ran, and how
// long it took, estimated as its count × the mean of its sampled occurrences.
type OpRow struct {
	Count    uint64
	Duration time.Duration
}

// opsSeries prefixes the registry's Table 1 counters; the op label is the
// row's name.
const opsSeries = `confide_core_ops_total{op="`

// OpProfile reads Table 1 from the registry: each engine operation that ran
// between the snapshots before and after, over every engine in the process.
func OpProfile(before, after metrics.Snapshot) map[string]OpRow {
	rows := make(map[string]OpRow)
	for series, n := range after.Counters {
		name, ok := strings.CutPrefix(series, opsSeries)
		if !ok || n == before.Counters[series] {
			continue
		}
		name = strings.TrimSuffix(name, `"}`)
		count := n - before.Counters[series]
		mean := after.MeanSince(before, `confide_core_op_seconds{op="`+name+`"}`)
		rows[name] = OpRow{Count: count, Duration: time.Duration(mean * float64(count) * 1e9)}
	}
	return rows
}

// RenderOpProfile lays rows out as the paper's Table 1: method, total
// duration, count and share of the total duration, longest first.
func RenderOpProfile(rows map[string]OpRow) string {
	names := make([]string, 0, len(rows))
	var total time.Duration
	for name, r := range rows {
		names = append(names, name)
		total += r.Duration
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := rows[names[i]], rows[names[j]]
		if a.Duration != b.Duration {
			return a.Duration > b.Duration
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %8s %7s\n", "Method", "Duration (ms)", "Counts", "Ratio")
	for _, name := range names {
		r := rows[name]
		ratio := 0.0
		if total > 0 {
			ratio = float64(r.Duration) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-24s %14.2f %8d %6.1f%%\n",
			name, float64(r.Duration)/float64(time.Millisecond), r.Count, ratio)
	}
	return b.String()
}

// The SCF-AR suite: a gateway contract calls a manager, which calls a
// service.
var (
	SCFGateway = chain.AddressFromBytes([]byte("scf-gateway"))
	scfManager = chain.AddressFromBytes([]byte("scf-manager"))
	scfService = chain.AddressFromBytes([]byte("scf-service"))
)

// DeploySCF installs the suite with deploy and seals the two transactions
// that wire gateway → manager → service; both commit before any transfer,
// which goes to SCFGateway.
func DeploySCF(client *core.Client, deploy func(addr chain.Address, code []byte) error) ([]*chain.Tx, error) {
	for _, c := range []struct {
		addr chain.Address
		src  string
	}{
		{SCFGateway, workload.SCFGatewaySrc},
		{scfManager, workload.SCFManagerSrc},
		{scfService, workload.SCFServiceSrc},
	} {
		code, err := workload.CompileCVM(c.src)
		if err != nil {
			return nil, err
		}
		if err := deploy(c.addr, code); err != nil {
			return nil, err
		}
	}
	var wires []*chain.Tx
	for _, w := range []struct{ to, next chain.Address }{{SCFGateway, scfManager}, {scfManager, scfService}} {
		tx, _, err := client.NewConfidentialTx(w.to, "init", w.next[:])
		if err != nil {
			return nil, err
		}
		wires = append(wires, tx)
	}
	return wires, nil
}

// table1Transfers is how many transfers Table 1 averages: one per step
// of the sampling stride. An operation that runs c times per transfer, c
// prime to the stride as every count in the suite is (31, 151, 9, …), is
// then timed exactly c times, once at each position within a transfer. The
// once-per-transfer steps run a block at a time, so each is timed once per
// block.
const table1Transfers = core.SampleEvery

// Table1Result carries the per-transfer rows and their rendered table.
type Table1Result struct {
	Rendered string
	Profile  map[string]OpRow
}

// Table1 runs production-shaped SCF-AR transfers through the hierarchical
// contract suite and reports one transfer's engine operations, read from the
// registry.
func Table1() (*Table1Result, error) {
	store := storage.NewMemStore()
	store.SetReadLatency(50 * time.Microsecond) // cloud KV store
	engine, err := newEngine(core.AllOptimizations(), store)
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(engine.EnvelopePublicKey())
	if err != nil {
		return nil, err
	}
	// run pre-verifies txs ahead of execution, a block at a time, as the
	// leader does, then executes and commits each. Every transaction reads
	// the suite's state from the store, as the paper's did from its cloud KV
	// store.
	run := func(txs []*chain.Tx) error {
		if kept := len(engine.PreVerifyBatch(txs)); kept != len(txs) {
			return fmt.Errorf("bench: pre-verification kept %d of %d transactions", kept, len(txs))
		}
		for _, tx := range txs {
			engine.InvalidateStateCache()
			res, err := engine.Execute(tx)
			if err != nil {
				return err
			}
			if res.Receipt.Status != chain.ReceiptOK {
				return fmt.Errorf("bench: SCF transaction failed: %s", res.Receipt.Output)
			}
			var batch storage.Batch
			if err = res.AppendWrites(&batch); err == nil {
				err = store.WriteBatch(&batch)
			}
			engine.SettleWrites(err == nil)
			if err != nil {
				return err
			}
		}
		return nil
	}
	wires, err := DeploySCF(client, func(addr chain.Address, code []byte) error {
		return engine.DeployContract(addr, ownerAddr, core.VMCVM, code, true, 1)
	})
	if err != nil {
		return nil, err
	}
	if err := run(wires); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(3))
	transfers := make([]*chain.Tx, 1+table1Transfers)
	for i := range transfers {
		method, args := workload.SCFTransferInput(rng)
		if transfers[i], _, err = client.NewConfidentialTx(SCFGateway, method, args...); err != nil {
			return nil, err
		}
	}
	// The first transfer is the only one that finds no earlier transfer's
	// state; it stays out of the table.
	if err := run(transfers[:1]); err != nil {
		return nil, err
	}
	before := metrics.Default().Snapshot()
	if err := run(transfers[1:]); err != nil {
		return nil, err
	}
	rows := OpProfile(before, metrics.Default().Snapshot())
	for name, r := range rows {
		if r.Count%table1Transfers != 0 {
			return nil, fmt.Errorf("bench: %s ran %d times in %d transfers, which differ", name, r.Count, table1Transfers)
		}
		rows[name] = OpRow{Count: r.Count / table1Transfers, Duration: r.Duration / table1Transfers}
	}
	return &Table1Result{Rendered: RenderOpProfile(rows), Profile: rows}, nil
}
