package main

// Workload definitions and set-up: contract deployment and the pre-sealed
// transaction stock. Everything the load generators send is produced here,
// before the clock starts; the system under test receives wire transactions
// only.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/node"
	wl "confide/internal/workload"
)

const (
	// closedWindow is the closed loop's fixed count of submitted-not-committed
	// transactions.
	closedWindow = 1024
	// maxBatchTxs bounds one POST /v1/submit/batch.
	maxBatchTxs = 128
	// openBatchEvery is the open loop's schedule: one batch falls due in each
	// period, at a seed-chosen instant within it. A strictly periodic
	// schedule locks phase with the block driver's 5 ms ticker, which made
	// the median latency a per-run lottery over a 5 ms range.
	openBatchEvery = 10 * time.Millisecond
	// clientIdentities is the number of distinct signing accounts.
	clientIdentities = 256
	// warmupShare of the measured seconds runs first and is excluded.
	warmupShare = 0.125
	// probeStockPerSecond sizes the probe's plaintext inputs; the probe wraps
	// around if it ever runs faster.
	probeStockPerSecond = 400
)

// workload is one traffic mix. The names are normative: BENCHMARK.json and
// later issues cite them.
type workload struct {
	name         string
	why          string
	confidential bool
	durable      bool // LSM stores in a temp dir instead of MemStore
	// openRate is the open loop's offered rate in tx/s; 0 selects the closed
	// loop with closedWindow.
	openRate int
	// stockRate sizes the pre-sealed stock in tx per second of load. For a
	// closed loop it is at least twice the saturation rate measured at the
	// baseline, so the loop ends on time, not on an empty stock; a run that
	// does empty it fails (run.go), because its figures would be the
	// harness's ceiling.
	stockRate int
	// primary is the end-to-end metric the trace overhead is taken on.
	primary string
	scf     bool
}

var workloads = []workload{
	{
		name:         "abs-conf-rate",
		why:          "confidential ABS transfers, open loop at 500 tx/s (cores under half busy): latency is the sum of blocking steps, so ordering-path changes show here and crypto changes barely do",
		confidential: true, openRate: 500, stockRate: 550, primary: "commit_p50_ms",
	},
	{
		name:         "abs-conf-sat",
		why:          "same transfers, closed loop of 1024: CPU-bound on every replica in envelope open, ECDSA, CVM and D-Protocol seal, so crypto/core/tee changes show here as throughput",
		confidential: true, stockRate: 5400, primary: "committed_tps",
	},
	{
		name:      "abs-pub-sat",
		why:       "same contract deployed public, closed loop of 1024: bypasses envelope open and receipt sealing, so gateway, chain, consensus, p2p, pipeline and node dominate; crypto changes predict no change",
		stockRate: 10400, primary: "committed_tps",
	},
	{
		name:         "scf-conf-durable",
		why:          "three-contract SCF-AR suite (31 calls, 151 reads, 9 writes per tx) on LSM stores, closed loop of 1024: cvm, tee ocalls, state decrypt and storage dominate while ordering idles",
		confidential: true, durable: true, stockRate: 1100, primary: "committed_tps", scf: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) loop() string {
	if w.openRate > 0 {
		return fmt.Sprintf("open at %d tx/s", w.openRate)
	}
	return fmt.Sprintf("closed with window %d", closedWindow)
}

func (w workload) input(rng *rand.Rand) (string, [][]byte) {
	if w.scf {
		return wl.SCFTransferInput(rng)
	}
	return "transfer", [][]byte{wl.MakeAssetFlatHot(rng, 128, 0.25)}
}

var (
	ownerAddr  = chain.AddressFromBytes([]byte("bench-owner"))
	absAddr    = chain.AddressFromBytes([]byte("bench-abs"))
	scfGateway = chain.AddressFromBytes([]byte("scf-gateway"))
	scfManager = chain.AddressFromBytes([]byte("scf-manager"))
	scfService = chain.AddressFromBytes([]byte("scf-service"))
)

// deploy installs the workload's contracts on every node and returns the
// entry contract plus the transactions that wire it up (empty for ABS). The
// wiring transactions still have to be committed through consensus.
func (w workload) deploy(c *node.Cluster, client *sealer) (chain.Address, []*stockTx, error) {
	if !w.scf {
		code, err := wl.CompileCVM(wl.ABSTransferFlatSrc)
		if err != nil {
			return absAddr, nil, err
		}
		return absAddr, nil, c.DeployEverywhere(absAddr, ownerAddr, core.VMCVM, code, w.confidential, 1)
	}
	for _, ct := range []struct {
		addr chain.Address
		src  string
	}{{scfGateway, wl.SCFGatewaySrc}, {scfManager, wl.SCFManagerSrc}, {scfService, wl.SCFServiceSrc}} {
		code, err := wl.CompileCVM(ct.src)
		if err != nil {
			return scfGateway, nil, err
		}
		if err := c.DeployEverywhere(ct.addr, ownerAddr, core.VMCVM, code, true, 1); err != nil {
			return scfGateway, nil, err
		}
	}
	var wiring []*stockTx
	for _, link := range []struct{ to, val chain.Address }{{scfGateway, scfManager}, {scfManager, scfService}} {
		tx, err := client.seal(true, link.to, "init", [][]byte{link.val[:]})
		if err != nil {
			return scfGateway, nil, err
		}
		wiring = append(wiring, tx)
	}
	return scfGateway, wiring, nil
}

// stockTx is one generated transaction as the generators hold it.
type stockTx struct {
	wire []byte
	hash chain.Hash
	ktx  []byte // opens the sealed receipt; nil for public transactions
}

// sealer is one client identity. Its signing key and the envelope's ephemeral
// key come from crypto/rand: wire bytes are not seed-determined, only the
// plaintext beneath them is.
type sealer struct {
	mu     sync.Mutex
	client *core.Client
}

func newSealer(epoch uint64, pkTx []byte) (*sealer, error) {
	c, err := core.NewClient(pkTx)
	if err != nil {
		return nil, err
	}
	c.SetEnvelopeKey(epoch, pkTx)
	return &sealer{client: c}, nil
}

func (s *sealer) seal(confidential bool, to chain.Address, method string, args [][]byte) (*stockTx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var tx *chain.Tx
	var ktx []byte
	var err error
	if confidential {
		tx, ktx, err = s.client.NewConfidentialTx(to, method, args...)
	} else {
		tx, err = s.client.NewPublicTx(to, method, args...)
	}
	if err != nil {
		return nil, err
	}
	return &stockTx{wire: tx.Encode(), hash: tx.Hash(), ktx: ktx}, nil
}

// call is one plaintext contract call and the identity that sends it.
type call struct {
	method string
	args   [][]byte
	client int
}

// inputs is everything the seed determines.
type inputs struct {
	calls    []call          // the batch generator's stock, in submission order
	probe    []call          // the probe's stock
	schedule []time.Duration // open loop: when each batch falls due, from the start of the load
	digest   string          // SHA-256 over all of the above
}

// generateInputs derives the plaintext calls, the order in which the client
// identities take turns and the open loop's schedule from seed alone.
func generateInputs(w workload, seed int64, stock, probeStock int) inputs {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(clientIdentities)
	in := inputs{calls: make([]call, stock), probe: make([]call, probeStock)}
	h := sha256.New()
	gen := func(dst []call) {
		for i := range dst {
			m, a := w.input(rng)
			dst[i] = call{method: m, args: a, client: order[i%clientIdentities]}
			fmt.Fprintf(h, "%d/%s/", dst[i].client, m)
			for _, arg := range a {
				h.Write(arg)
			}
		}
	}
	gen(in.calls)
	gen(in.probe)
	if per := w.openRate * int(openBatchEvery) / int(time.Second); per > 0 {
		for k := 0; k < stock/per; k++ {
			in.schedule = append(in.schedule, time.Duration(k)*openBatchEvery+time.Duration(rng.Int63n(int64(openBatchEvery))))
		}
		fmt.Fprint(h, in.schedule)
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in
}

// sealStock turns calls into wire transactions on every core; set-up is
// allowed to use the whole box, the measured run is not.
func sealStock(w workload, to chain.Address, clients []*sealer, calls []call) ([]*stockTx, error) {
	out := make([]*stockTx, len(calls))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(calls); i += workers {
				c := calls[i]
				tx, err := clients[c.client].seal(w.confidential, to, c.method, c.args)
				if err != nil {
					errs[k] = err
					return
				}
				out[i] = tx
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
