// Package chaos is a seeded end-to-end fault drill. It boots a cluster, keeps
// a client-style workload flowing (with retries, as a real client would),
// and injects the fault schedule — message loss on every link, leader
// crashes with restarts, and a partition that splits and heals — then
// requires full convergence: every transaction committed with an OK receipt
// on every node, identical header chains. Nothing in the
// harness touches consensus internals or produces blocks: the nodes cut
// their own (Cluster.StartDriver), and recovery comes entirely from the
// automatic timers, retransmission and block catch-up.
//
// The package imports node and gateway and is imported only by tests and
// cmd/benchrunner, so no production package carries harness code.
package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/keyepoch"
	"confide/internal/metrics"
	"confide/internal/node"
	"confide/internal/p2p"
	"confide/internal/storage/vfs"
	"confide/internal/storage/vfs/faultfs"
)

// chaosLedgerSrc is the harness's workload contract: per-account balances
// with a credit operation (so the final state is a deterministic function
// of the committed transaction set, not of ordering).
const chaosLedgerSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}
fn arg(buf, idx) -> int {
	let mlen = u16at(buf);
	let p = buf + 2 + mlen + 2;
	let i = 0;
	while i < idx {
		p = p + 4 + u32at(p);
		i = i + 1;
	}
	return p;
}
fn balance(acct) -> int {
	let tmp = alloc(8);
	let n = storage_get(acct, 8, tmp, 8);
	if n < 1 { return 0; }
	return load8(tmp);
}
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	if c == 99 { // 'c'redit
		let acct = arg(buf, 0) + 4;
		let amt = load8(arg(buf, 1) + 4);
		let tmp = alloc(8);
		store8(tmp, balance(acct) + amt);
		storage_set(acct, 8, tmp, 1);
	}
}
`

var chaosLedgerAddr = chain.AddressFromBytes([]byte("chaosledger"))

// Options shapes one chaos run. The zero value is a quick deterministic
// drill suitable for `go test`.
type Options struct {
	// Nodes is the cluster size (default 4; must be ≥ 4 to tolerate one
	// fault).
	Nodes int
	// Txs is the number of client transactions (default 24).
	Txs int
	// Seed drives every random choice: the fault schedule, fault targets
	// and the network's drop lottery. Same seed → same schedule.
	Seed int64
	// DropRate is the global message loss probability (default 0.05 —
	// pass a negative value for a lossless run).
	DropRate float64
	// DuplicateRate / ReorderRate add delivery anomalies (default 0.02 /
	// 0.02; negative disables).
	DuplicateRate float64
	ReorderRate   float64
	// LeaderCrashes is how many crash-and-restart faults target the
	// current leader (default 1).
	LeaderCrashes int
	// Partitions is how many partition/heal cycles isolate one random node
	// (default 1).
	Partitions int
	// WipeRejoins is how many wipe-and-rejoin faults erase a random
	// follower's entire store mid-run (default 0 = off). The wiped node must
	// re-acquire everything from its peers; enabling this turns on
	// checkpoints for the run (CheckpointInterval 3, Retention 6), so the
	// rejoin is required to go through snapshot fast-sync — certified from
	// the metrics registry at the end.
	WipeRejoins int
	// Rotations is how many key-epoch rotations are ordered through
	// governance mid-run (default 0 = off). Each rotation must activate on
	// every replica under the ongoing fault schedule, uncommitted workload
	// re-seals to the new epoch, and the run is certified from the registry:
	// the rotation counter must have moved on every node's ring.
	Rotations int
	// GatewayKills is how many gateway-crash faults are injected (default
	// 0 = off). When set, every node is fronted by a gateway and the workload
	// flows through the HTTP edge instead of in-process SubmitTx, a random
	// node's gateway is killed abruptly mid-traffic and replaced when the
	// fault window lifts, and the run is certified from the gateway
	// request/accept counters.
	GatewayKills int
	// Crashes is how many crash-and-recover disk faults are injected
	// (default 0 = off). Each one arms a random named crash point (WAL
	// append, memtable flush, sstable publish, prune) on a random node and
	// lets live traffic drive the node through it — the fault filesystem
	// freezes at the exact durable image a power cut would leave and the
	// node dies without any clean shutdown. If traffic never reaches the
	// armed point by the end of the fault window the crash is forced (the
	// "power cable" fault). When the window lifts the node is revived from
	// the frozen image: WAL replay normally, quarantine plus snapshot
	// fast-sync when the image is corrupted beyond the WAL's tolerance.
	// Enabling this backs every store with faultfs (small memtables) and
	// turns on checkpoints, and the run is certified from the registry:
	// every crash recovered, no committed transaction lost, identical chain
	// prefixes, and every node's sealed state re-verifies (AuditSealedState)
	// after convergence.
	Crashes int
	// DiskFaults layers transient disk faults onto the crash victim's
	// filesystem during each crash window: ENOSPC after partial writes,
	// transient read EIO, read bit-flips, lying fsyncs. Requires Crashes.
	DiskFaults bool
	// PipelineDepth is every node's in-flight proposal window (default 0 =
	// depth 1), which the leader's proposer loop fills under load. At
	// depth > 1 faults — leader kills included — land mid-pipeline,
	// exercising the predicted-parent abort/re-pool path; the run still
	// certifies that no committed transaction is lost and every chain
	// converges byte-identically.
	PipelineDepth int
	// ExecWorkers is each node's OCC lane count (default 0 = no lanes).
	ExecWorkers int
	// FaultFor is how long each fault stays active (default 500ms); faults
	// are scheduled sequentially so at most one is active at a time,
	// keeping the fault count within f.
	FaultFor time.Duration
	// StepEvery paces the harness loop: faults, retries, convergence (default 25ms).
	StepEvery time.Duration
	// Timeout aborts a run that fails to converge (default 120s).
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.Txs == 0 {
		o.Txs = 24
	}
	if o.DropRate == 0 {
		o.DropRate = 0.05
	}
	if o.DuplicateRate == 0 {
		o.DuplicateRate = 0.02
	}
	if o.ReorderRate == 0 {
		o.ReorderRate = 0.02
	}
	if o.LeaderCrashes == 0 {
		o.LeaderCrashes = 1
	}
	if o.Partitions == 0 {
		o.Partitions = 1
	}
	if o.FaultFor == 0 {
		o.FaultFor = 500 * time.Millisecond
	}
	if o.StepEvery == 0 {
		o.StepEvery = 25 * time.Millisecond
	}
	if o.Timeout == 0 {
		o.Timeout = 120 * time.Second
	}
	return o
}

// Report summarizes a converged run.
type Report struct {
	Nodes       int
	Txs         int
	Height      uint64
	ViewChanges uint64
	Elapsed     time.Duration
	// HeaderChainHash is a hash of the retained header chain (which in turn
	// commits to every transaction set); identical on every node at
	// convergence.
	HeaderChainHash chain.Hash
	// Net aggregates the fault injector's counters for the whole run.
	Net p2p.Stats
	// Metrics holds the global-registry counter deltas accrued during the
	// run (family name → increase). These are what the run is certified
	// against: under a leader crash the consensus view-change counter must
	// move, under loss the p2p drop counter must, and the pipeline must have
	// traced at least Txs commits. The retransmission delta is carried for
	// the reader; whether a given lossy run needed a resend is chance.
	Metrics map[string]uint64
	// Disk aggregates the fault filesystems' injected-fault and crash
	// counters across all nodes (Crashes > 0 runs only).
	Disk faultfs.Stats
	// Events is the injected fault timeline.
	Events []string
}

type chaosFault struct {
	at          time.Duration
	until       time.Duration
	isCrash     bool   // crash (else partition, unless isWipe/isGwKill/isDiskCrash)
	isWipe      bool   // wipe-and-rejoin (waits for height ≥ 2×CheckpointInterval)
	isGwKill    bool   // kill one node's gateway edge mid-traffic
	isDiskCrash bool   // arm a crash point, kill without shutdown, revive from disk image
	point       string // armed crash point (disk crashes)
	target      int    // partition / gateway-kill / disk-crash victim
}

// chaosCrashPoints are the points a disk-crash fault arms: the ones the
// drill's own traffic reliably drives (every commit appends to the WAL; the
// 4 KiB memtable makes flushes and publishes frequent; checkpoints every 3
// blocks make prune passes frequent). Checkpoint-install and reseal-sweep
// fire only during fast-sync and rotation drains, so targeted tests cover
// them instead of the randomized drill.
var chaosCrashPoints = []string{
	vfs.CrashWALAppend,
	vfs.CrashMemtableFlush,
	vfs.CrashSSTablePublish,
	vfs.CrashPrune,
}

// Run executes one seeded chaos drill and verifies convergence.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Nodes < 4 {
		return nil, fmt.Errorf("chaos: need ≥ 4 nodes to tolerate a fault, got %d", opts.Nodes)
	}
	if opts.DiskFaults && opts.Crashes == 0 {
		return nil, fmt.Errorf("chaos: DiskFaults layers onto crash windows; set Crashes > 0")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	clamp := func(r float64) float64 {
		if r < 0 {
			return 0
		}
		return r
	}
	cluster, err := node.NewCluster(node.ClusterOptions{
		Nodes:      opts.Nodes,
		DiskFaults: opts.Crashes > 0,
		FaultSeed:  opts.Seed,
		Network: p2p.Config{
			DropRate:      clamp(opts.DropRate),
			DuplicateRate: clamp(opts.DuplicateRate),
			ReorderRate:   clamp(opts.ReorderRate),
			Seed:          opts.Seed,
		},
		Node: node.Config{
			EngineOpts: core.AllOptimizations(),
			Consensus: consensus.Options{
				ViewTimeout:        250 * time.Millisecond,
				RetransmitInterval: 20 * time.Millisecond,
				RetransmitMax:      200 * time.Millisecond,
				HeartbeatInterval:  30 * time.Millisecond,
			},
			SyncInterval:       40 * time.Millisecond,
			CheckpointInterval: chaosCheckpointInterval(opts),
			Retention:          chaosRetention(opts),
			PipelineDepth:      opts.PipelineDepth,
			ExecWorkers:        opts.ExecWorkers,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	defer cluster.StartDriver(0)()

	// With gateway kills scheduled the workload enters through the HTTP edge;
	// gws stays nil otherwise and transactions go straight to SubmitTx.
	var gws *gateways
	if opts.GatewayKills > 0 {
		if gws, err = startGateways(cluster); err != nil {
			return nil, fmt.Errorf("chaos: starting gateways: %w", err)
		}
		defer gws.stop()
	}

	mod, err := ccl.CompileCVM(chaosLedgerSrc)
	if err != nil {
		return nil, fmt.Errorf("chaos: compiling workload contract: %w", err)
	}
	owner := chain.AddressFromBytes([]byte("chaosowner"))
	if err := cluster.DeployEverywhere(chaosLedgerAddr, owner, core.VMCVM, mod.Encode(), true, 1); err != nil {
		return nil, err
	}
	client, err := core.NewClient(cluster.EnvelopePublicKey())
	if err != nil {
		return nil, err
	}

	// Fault schedule: sequential windows with slack between them, so at
	// most one fault is ever active (the cluster tolerates f = 1).
	// Wipe-rejoins go last: they need enough chain behind them (two full
	// checkpoint intervals) to force the snapshot path.
	var faults []chaosFault
	cursor := 300 * time.Millisecond
	for i := 0; i < opts.LeaderCrashes+opts.Partitions+opts.GatewayKills+opts.Crashes+opts.WipeRejoins; i++ {
		f := chaosFault{at: cursor, until: cursor + opts.FaultFor}
		switch {
		case i < opts.LeaderCrashes:
			f.isCrash = true
		case i < opts.LeaderCrashes+opts.Partitions:
			f.target = rng.Intn(opts.Nodes)
		case i < opts.LeaderCrashes+opts.Partitions+opts.GatewayKills:
			f.isGwKill = true
			f.target = rng.Intn(opts.Nodes)
		case i < opts.LeaderCrashes+opts.Partitions+opts.GatewayKills+opts.Crashes:
			f.isDiskCrash = true
			f.point = chaosCrashPoints[rng.Intn(len(chaosCrashPoints))]
			f.target = rng.Intn(opts.Nodes)
		default:
			f.isWipe = true
		}
		faults = append(faults, f)
		cursor = f.until + opts.FaultFor
	}

	// Workload: credits spread over a few accounts, amounts seeded, with
	// submission times spread across the whole fault schedule so every
	// fault window hits in-flight work. Account and amount are kept so an
	// uncommitted transaction can be re-sealed after a key rotation, and each
	// k_tx so its receipt can be opened on any node.
	txs := make([]*chain.Tx, opts.Txs)
	keys := make([][]byte, opts.Txs)
	submitAt := make([]time.Duration, opts.Txs)
	accounts := make([][]byte, opts.Txs)
	amounts := make([]byte, opts.Txs)
	for i := range txs {
		accounts[i] = []byte(fmt.Sprintf("acct-%03d", i%5))
		amounts[i] = byte(1 + rng.Intn(5))
		if txs[i], keys[i], err = client.NewConfidentialTx(chaosLedgerAddr, "credit", accounts[i], []byte{amounts[i]}); err != nil {
			return nil, err
		}
		submitAt[i] = cursor * time.Duration(i) / time.Duration(opts.Txs)
	}

	report := &Report{Nodes: opts.Nodes, Txs: opts.Txs}
	before := metrics.Default().Snapshot()
	start := time.Now()
	logEvent := func(format string, args ...any) {
		report.Events = append(report.Events,
			fmt.Sprintf("t+%s ", time.Since(start).Round(time.Millisecond))+fmt.Sprintf(format, args...))
	}

	crashed := -1
	partitioned := false
	gwKilled := -1
	diskCrashed := -1 // disk-crash victim for the active window
	var lastSubmit time.Time
	deadline := start.Add(opts.Timeout)

	// submit routes one workload transaction: in-process SubmitTx normally,
	// over real TCP through the node's gateway when gateways are up. A
	// killed gateway is sidestepped like a crashed node — the client's
	// failover, not a harness cheat.
	submit := func(target int, tx *chain.Tx) {
		if target == crashed || target == diskCrashed {
			target = (target + 1) % opts.Nodes
		}
		if gws != nil {
			if target == gwKilled {
				target = (target + 1) % opts.Nodes
			}
			gws.submit(target, tx)
			return
		}
		cluster.Nodes[target].SubmitTx(tx)
	}

	// Key-rotation schedule: opts.Rotations governance rotations are ordered
	// mid-run, the first as soon as the chain moves, each next one after the
	// previous has activated on every replica.
	rotationsLeft := opts.Rotations
	var govTx *chain.Tx
	var govRot keyepoch.Rotation
	targetEpoch := uint64(1)

	// okOn asks the one question convergence needs of node n about workload
	// transaction i: does its store hold the receipt, and does it open OK with
	// the client's k_tx?
	okOn := func(n *node.Node, i int) bool {
		rpt, err := n.Receipt(txs[i].Hash(), keys[i])
		return err == nil && rpt.Status == chain.ReceiptOK
	}
	allCommitted := func() bool {
		for _, n := range cluster.Nodes {
			for i := range txs {
				if !okOn(n, i) {
					return false
				}
			}
		}
		return true
	}
	committedAnywhere := func(tx *chain.Tx) bool {
		for _, n := range cluster.Nodes {
			if _, found, _ := n.StoredReceipt(tx.Hash()); found {
				return true
			}
		}
		return false
	}
	converged := func() bool {
		// Every ordered rotation must have fully played out: none left to
		// submit, none in flight, and every replica on the final epoch.
		if rotationsLeft > 0 || govTx != nil {
			return false
		}
		for _, n := range cluster.Nodes {
			if n.CurrentEpoch() != targetEpoch {
				return false
			}
		}
		if !allCommitted() {
			return false
		}
		h := cluster.Nodes[0].Height()
		for _, n := range cluster.Nodes[1:] {
			if n.Height() != h {
				return false
			}
		}
		return true
	}

	// The drill runs until the whole fault schedule has played out AND the
	// cluster has converged afterwards.
	for len(faults) > 0 || crashed >= 0 || partitioned || diskCrashed >= 0 || !converged() {
		if time.Now().After(deadline) {
			var state string
			for i, n := range cluster.Nodes {
				missing := 0
				for j := range txs {
					if !okOn(n, j) {
						missing++
					}
				}
				state += fmt.Sprintf(" node%d{h=%d view=%d delivered=%d pool=%d+%d missing=%d}",
					i, n.Height(), n.Replica().View(), n.Replica().Delivered(),
					n.UnverifiedPoolLen(), n.VerifiedPoolLen(), missing)
			}
			return nil, fmt.Errorf("chaos: no convergence after %s (events: %v; state:%s)",
				opts.Timeout, report.Events, state)
		}
		now := time.Since(start)

		// Inject and lift scheduled faults.
		if len(faults) > 0 && crashed < 0 && !partitioned && gwKilled < 0 && diskCrashed < 0 && now >= faults[0].at {
			f := faults[0]
			if f.isGwKill {
				gws.kill(f.target)
				gwKilled = f.target
				logEvent("kill gateway %d mid-traffic for %s", f.target, opts.FaultFor)
			} else if f.isDiskCrash {
				// Arm the crash point and let live traffic drive the victim
				// through it; the node fail-stops itself the instant it fires.
				// The kill is completed (and forced, if traffic never got
				// there) when the window lifts.
				if _, aerr := cluster.ArmCrash(f.target, f.point); aerr != nil {
					return nil, aerr
				}
				if opts.DiskFaults {
					cluster.FaultFS(f.target).SetProbs(faultfs.Probs{
						WriteErr: 0.01, ReadErr: 0.01, ReadFlip: 0.01, SyncLie: 0.05,
					})
				}
				diskCrashed = f.target
				logEvent("arm crash point %q on node %d (transient disk faults: %v)", f.point, f.target, opts.DiskFaults)
			} else if f.isWipe {
				// Wipe-and-rejoin fires only once two full checkpoint
				// intervals of chain exist, so genesis replay would cross a
				// checkpoint and the snapshot path is mandatory; until then
				// the fault stays pending.
				interval := chaosCheckpointInterval(opts)
				if cluster.Leader().Height() >= 2*interval {
					victim := rng.Intn(opts.Nodes)
					if victim == int(cluster.Leader().ID()) {
						victim = (victim + 1) % opts.Nodes
					}
					if err := cluster.RestartNode(victim, true); err != nil {
						return nil, fmt.Errorf("chaos: wipe-rejoin node %d: %w", victim, err)
					}
					logEvent("wipe node %d (store erased; must rejoin via snapshot)", victim)
					faults = faults[1:]
				}
			} else if f.isCrash {
				leader := cluster.Leader()
				crashed = int(leader.ID())
				leader.Endpoint().Crash()
				logEvent("crash leader node %d for %s", crashed, opts.FaultFor)
			} else {
				var majority []p2p.NodeID
				for i := 0; i < opts.Nodes; i++ {
					if i != f.target {
						majority = append(majority, p2p.NodeID(i))
					}
				}
				cluster.Net().Partition([][]p2p.NodeID{majority})
				partitioned = true
				logEvent("partition node %d away for %s", f.target, opts.FaultFor)
			}
		}
		if len(faults) > 0 && now >= faults[0].until && (crashed >= 0 || partitioned || gwKilled >= 0 || diskCrashed >= 0) {
			if crashed >= 0 {
				cluster.Nodes[crashed].Endpoint().Recover()
				logEvent("restart node %d", crashed)
				crashed = -1
			}
			if diskCrashed >= 0 {
				// Complete the kill (idempotent if the armed point already
				// froze the disk and the node fail-stopped) and bring the node
				// back up from the crash image.
				if cerr := cluster.CrashNode(diskCrashed); cerr != nil {
					return nil, cerr
				}
				if gws != nil {
					gws.kill(diskCrashed) // edge dies with its host
				}
				quarantined, rerr := cluster.ReviveNode(diskCrashed)
				if rerr != nil {
					return nil, fmt.Errorf("chaos: reviving node %d: %w", diskCrashed, rerr)
				}
				if gws != nil {
					if rerr := gws.restart(diskCrashed); rerr != nil {
						return nil, fmt.Errorf("chaos: rebinding gateway %d after revive: %w", diskCrashed, rerr)
					}
				}
				logEvent("revive node %d from crash image (quarantined=%v)", diskCrashed, quarantined)
				diskCrashed = -1
			}
			if partitioned {
				cluster.Net().Heal()
				logEvent("heal partition")
				partitioned = false
			}
			if gwKilled >= 0 {
				if err := gws.restart(gwKilled); err != nil {
					return nil, fmt.Errorf("chaos: restarting gateway %d: %w", gwKilled, err)
				}
				logEvent("restart gateway %d", gwKilled)
				gwKilled = -1
			}
			faults = faults[1:]
		}

		// Rotation driver: order a governance rotation, watch its public
		// receipt, and once the new epoch is active everywhere re-seal the
		// uncommitted workload so nothing strands beyond the window.
		if rotationsLeft > 0 {
			if govTx == nil {
				leader := cluster.Leader()
				if leader.Height() >= 1 && int(leader.ID()) != crashed {
					govRot = keyepoch.Rotation{
						NewEpoch:         targetEpoch + 1,
						ActivationHeight: leader.Height() + 3,
					}
					govTx = &chain.Tx{Type: chain.TxTypeGovernance, Payload: govRot.Encode()}
					if leader.SubmitTx(govTx) != nil {
						govTx = nil
					} else {
						logEvent("rotation to epoch %d scheduled for height %d", govRot.NewEpoch, govRot.ActivationHeight)
					}
				}
			} else {
				// Deterministic rejection (e.g. the chain outran the
				// activation height before ordering): rebuild and resubmit,
				// like any governance client would.
				for _, n := range cluster.Nodes {
					if rpt, err := n.Receipt(govTx.Hash(), nil); err == nil && rpt.Status == chain.ReceiptFailed {
						logEvent("rotation schedule rejected (%s); resubmitting", rpt.Output)
						govTx = nil
						break
					}
				}
			}
			if govTx != nil {
				activated := true
				for _, n := range cluster.Nodes {
					if n.CurrentEpoch() < govRot.NewEpoch {
						activated = false
						break
					}
				}
				if activated {
					targetEpoch = govRot.NewEpoch
					rotationsLeft--
					govTx = nil
					logEvent("epoch %d active on every node", targetEpoch)
					epoch, pk := cluster.EnvelopeKeyInfo()
					client.SetEnvelopeKey(epoch, pk)
					for i := range txs {
						if !committedAnywhere(txs[i]) {
							if tx, ktx, rerr := client.NewConfidentialTx(chaosLedgerAddr, "credit", accounts[i], []byte{amounts[i]}); rerr == nil {
								txs[i], keys[i] = tx, ktx
							}
						}
					}
				} else if cluster.Leader().Height() < govRot.ActivationHeight {
					// Keep blocks flowing toward the activation height even
					// when the workload has drained.
					pending := 0
					for _, n := range cluster.Nodes {
						pending += n.UnverifiedPoolLen() + n.VerifiedPoolLen()
					}
					if pending == 0 {
						if tx, _, rerr := client.NewConfidentialTx(chaosLedgerAddr, "credit", []byte("acctfill"), []byte{1}); rerr == nil {
							submit(rng.Intn(opts.Nodes), tx)
						}
					}
				}
			}
		}

		// Client behaviour: submit each transaction when its scheduled time
		// arrives, and re-submit any that have not committed anywhere yet.
		// Execution-time dedup makes retries safe even when the first copy
		// is still in flight.
		if time.Since(lastSubmit) >= 10*opts.StepEvery || lastSubmit.IsZero() {
			lastSubmit = time.Now()
			for i, tx := range txs {
				if now < submitAt[i] {
					continue
				}
				if !committedAnywhere(tx) {
					submit(rng.Intn(opts.Nodes), tx)
				}
			}
		}

		time.Sleep(opts.StepEvery)
	}

	// Convergence holds; certify identical chains via a hash over the header
	// sequence (headers commit to the tx sets, and execution is
	// deterministic, so equal header chains imply equal state). The hash
	// starts at the highest retained floor across nodes: with pruning or a
	// wipe-rejoin in play, history below the last stable checkpoint exists
	// on no (or not every) node — by design — and the headers above it chain
	// from the checkpoint's tip hash, which the snapshot manifest bound.
	report.Height = cluster.Nodes[0].Height()
	floor := uint64(0)
	for _, n := range cluster.Nodes {
		if pt := n.PrunedTo(); pt > floor {
			floor = pt
		}
	}
	hashes := make([]chain.Hash, opts.Nodes)
	for i, n := range cluster.Nodes {
		hasher := sha256.New()
		for h := floor; h < report.Height; h++ {
			hdr, err := n.HeaderAt(h)
			if err != nil {
				return nil, fmt.Errorf("chaos: node %d missing block %d after convergence: %w", i, h, err)
			}
			hasher.Write(hdr)
		}
		copy(hashes[i][:], hasher.Sum(nil))
	}
	for i := 1; i < opts.Nodes; i++ {
		if hashes[i] != hashes[0] {
			return nil, fmt.Errorf("chaos: header chain divergence: node %d %x vs node 0 %x", i, hashes[i][:8], hashes[0][:8])
		}
	}
	report.HeaderChainHash = hashes[0]
	if opts.Crashes > 0 {
		// Post-crash certification: every node's sealed state must re-verify
		// end-to-end (AEAD open of every confidential code and state record)
		// after the crash-restart cycles, and the audit must actually have
		// had sealed workload to open.
		for i, n := range cluster.Nodes {
			st, aerr := n.ConfidentialEngine().AuditSealedState()
			if aerr != nil {
				return nil, fmt.Errorf("chaos: node %d sealed-state audit failed after crash drill: %w", i, aerr)
			}
			if st.Opened == 0 {
				return nil, fmt.Errorf("chaos: node %d sealed-state audit opened no records — nothing was certified", i)
			}
		}
		for i := range cluster.Nodes {
			s := cluster.FaultFS(i).Stats()
			report.Disk.WriteErrs += s.WriteErrs
			report.Disk.ReadErrs += s.ReadErrs
			report.Disk.BitFlips += s.BitFlips
			report.Disk.SyncErrs += s.SyncErrs
			report.Disk.SyncLies += s.SyncLies
			report.Disk.TornTails += s.TornTails
			report.Disk.Crashes += s.Crashes
		}
	}
	for _, n := range cluster.Nodes {
		if vc := n.Replica().ViewChanges(); vc > report.ViewChanges {
			report.ViewChanges = vc
		}
	}
	report.Net = cluster.Net().Stats()
	report.Elapsed = time.Since(start)

	// Certify the run against the metrics registry: the faults we injected
	// must be visible in the instrumentation, or the observability layer (or
	// the fault injection) is broken. Deltas isolate this run from whatever
	// other tests in the process have accrued; on a shared global registry
	// concurrent runs can only inflate them, never satisfy an assertion that
	// this run's faults failed to produce.
	after := metrics.Default().Snapshot()
	delta := func(family string) uint64 {
		return after.CounterSum(family) - before.CounterSum(family)
	}
	report.Metrics = map[string]uint64{
		"confide_consensus_view_changes_total":             delta("confide_consensus_view_changes_total"),
		"confide_consensus_retransmissions_total":          delta("confide_consensus_retransmissions_total"),
		"confide_consensus_delivered_total":                delta("confide_consensus_delivered_total"),
		"confide_p2p_drops_total":                          delta("confide_p2p_drops_total"),
		"confide_node_blocks_committed_total":              delta("confide_node_blocks_committed_total"),
		"confide_tee_ecalls_total":                         delta("confide_tee_ecalls_total"),
		"confide_snapshot_installs_total":                  delta("confide_snapshot_installs_total"),
		"confide_node_snapshot_bad_chunks_total":           delta("confide_node_snapshot_bad_chunks_total"),
		"confide_node_snapshot_install_failures_total":     delta("confide_node_snapshot_install_failures_total"),
		"confide_keyepoch_rotations_total":                 delta("confide_keyepoch_rotations_total"),
		"confide_keyepoch_stale_envelope_rejections_total": delta("confide_keyepoch_stale_envelope_rejections_total"),
		"confide_gateway_requests_total":                   delta("confide_gateway_requests_total"),
		"confide_gateway_accepted_txs_total":               delta("confide_gateway_accepted_txs_total"),
		"confide_gateway_dedup_hits_total":                 delta("confide_gateway_dedup_hits_total"),
		"confide_gateway_shed_total":                       delta("confide_gateway_shed_total"),
		"confide_node_store_fatal_total":                   delta("confide_node_store_fatal_total"),
		"confide_node_store_quarantines_total":             delta("confide_node_store_quarantines_total"),
		"confide_node_crash_recoveries_total":              delta("confide_node_crash_recoveries_total"),
		"confide_storage_sticky_failures_total":            delta("confide_storage_sticky_failures_total"),
		"confide_storage_read_retries_total":               delta("confide_storage_read_retries_total"),
	}
	if metrics.Default().Enabled() {
		pipelineEnds := after.HistogramCount("confide_pipeline_total_seconds") -
			before.HistogramCount("confide_pipeline_total_seconds")
		if opts.LeaderCrashes > 0 && report.Metrics["confide_consensus_view_changes_total"] == 0 {
			return nil, fmt.Errorf("chaos: %d leader crash(es) injected but the view-change counter never moved", opts.LeaderCrashes)
		}
		// Loss is certified by the drop counter alone. The retransmission
		// delta is reported, not required: a dropped vote does not imply a
		// resend, and a short lossy run can reach every quorum before any
		// resend timer fires.
		if opts.DropRate > 0 && report.Metrics["confide_p2p_drops_total"] == 0 {
			return nil, fmt.Errorf("chaos: %.0f%% loss injected but the p2p drop counters never moved", opts.DropRate*100)
		}
		if report.Metrics["confide_node_blocks_committed_total"] == 0 {
			return nil, fmt.Errorf("chaos: converged but the block-commit counter never moved")
		}
		if report.Metrics["confide_tee_ecalls_total"] == 0 {
			return nil, fmt.Errorf("chaos: confidential workload ran but no ecalls were counted")
		}
		if pipelineEnds < uint64(opts.Txs) {
			return nil, fmt.Errorf("chaos: %d txs committed but only %d pipeline spans completed", opts.Txs, pipelineEnds)
		}
		if opts.WipeRejoins > 0 {
			// Certify the rejoin path from the registry: every wipe must have
			// gone through a snapshot install, and nothing unverified may
			// have been installed.
			if got := report.Metrics["confide_snapshot_installs_total"]; got < uint64(opts.WipeRejoins) {
				return nil, fmt.Errorf("chaos: %d wipe(s) injected but only %d snapshot installs recorded — a node rejoined by genesis replay",
					opts.WipeRejoins, got)
			}
			if got := report.Metrics["confide_node_snapshot_install_failures_total"]; got != 0 {
				return nil, fmt.Errorf("chaos: %d snapshot install(s) failed verification", got)
			}
		}
		if opts.GatewayKills > 0 {
			// The whole workload flowed through the HTTP edge: every unique
			// transaction must have been accepted by some gateway at least
			// once (commits cannot bypass the edge), and the request counters
			// must show real traffic despite the kills.
			if report.Metrics["confide_gateway_requests_total"] == 0 {
				return nil, fmt.Errorf("chaos: gateway workload ran but the request counters never moved")
			}
			if got := report.Metrics["confide_gateway_accepted_txs_total"]; got < uint64(opts.Txs) {
				return nil, fmt.Errorf("chaos: %d txs committed but gateways only accepted %d — some bypassed the edge",
					opts.Txs, got)
			}
		}
		if opts.Crashes > 0 {
			// Every injected crash must have gone through a revive (WAL
			// recovery or quarantine + fast-sync) — a crash that "recovered"
			// without the recovery path is a harness bug, and a node that
			// never came back would have blocked convergence above.
			if got := report.Metrics["confide_node_crash_recoveries_total"]; got < uint64(opts.Crashes) {
				return nil, fmt.Errorf("chaos: %d crash(es) injected but only %d crash recoveries recorded", opts.Crashes, got)
			}
		}
		if opts.Rotations > 0 {
			// Every node's ring must have advanced for every ordered
			// rotation (a wiped-and-rejoined node re-advances on adoption,
			// which can only add to the delta).
			want := uint64(opts.Rotations * opts.Nodes)
			if got := report.Metrics["confide_keyepoch_rotations_total"]; got < want {
				return nil, fmt.Errorf("chaos: %d rotation(s) ordered across %d nodes but only %d ring advances recorded",
					opts.Rotations, opts.Nodes, got)
			}
		}
	}
	return report, nil
}

// chaosCheckpointInterval is the checkpoint cadence a wipe-rejoin or crash
// drill runs with (checkpoints stay off otherwise, matching the default
// deployment). Crash drills need them so a quarantined store can rebuild by
// snapshot fast-sync — and so the prune crash point has traffic.
func chaosCheckpointInterval(opts Options) uint64 {
	if opts.WipeRejoins == 0 && opts.Crashes == 0 {
		return 0
	}
	return 3
}

// chaosRetention keeps two intervals of payload history in a wipe-rejoin or
// crash drill, so pruning is exercised without starving the tail replay.
func chaosRetention(opts Options) uint64 {
	if opts.WipeRejoins == 0 && opts.Crashes == 0 {
		return 0
	}
	return 6
}
