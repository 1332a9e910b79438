package node

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/keyepoch"
	"confide/internal/kms"
	"confide/internal/p2p"
	"confide/internal/storage"
	"confide/internal/storage/vfs"
	"confide/internal/storage/vfs/faultfs"
	"confide/internal/tee"
)

// ClusterOptions shapes a whole test/benchmark network.
type ClusterOptions struct {
	// Nodes is the replica count (default 4).
	Nodes int
	// Zones assigns each node a zone; nil puts everyone in zone 0. The
	// paper's two-city experiment uses a 1:2 split.
	Zones []int
	// Network configures link latencies/bandwidth.
	Network p2p.Config
	// Node configures per-node execution.
	Node Config
	// PerNodeEngineOpts overrides Node.EngineOpts for individual nodes
	// (index i applies to node i; missing/short entries keep the default).
	// Heterogeneous engine configurations — e.g. some replicas running the
	// CVM ahead-of-time compiler while others interpret — must still commit
	// byte-identical state; the mixed-cluster tests drive this.
	PerNodeEngineOpts map[int]core.Options
	// PerNodeExecWorkers overrides Node.ExecWorkers for individual nodes.
	// Replicas with different OCC lane counts must commit byte-identical
	// state (speculation reads only the pre-block snapshot; validation is
	// sequential); the mixed-workers determinism test drives this.
	PerNodeExecWorkers map[int]int
	// Enclave configures the CS enclaves (delay injection etc.).
	Enclave tee.Config
	// StoreReadLatency / StoreWriteLatency model the storage device
	// (in-memory store only).
	StoreReadLatency  time.Duration
	StoreWriteLatency time.Duration
	// StoreDir, when set, backs every node with a durable LSM store under
	// StoreDir/node-<id> instead of the in-memory store.
	StoreDir string
	// DiskFaults backs every node's store with a seeded fault-injection
	// filesystem (faultfs) plus a crash-point registry, enabling the
	// ArmCrash / CrashNode / ReviveNode drill primitives. The stores are
	// durable LSM stores over the virtual filesystem (no real disk I/O);
	// StoreDir names the virtual root and defaults to "faultfs". Memtables
	// are kept small so flush and publish crash points fire under test-sized
	// workloads.
	DiskFaults bool
	// FaultSeed seeds node i's fault filesystem with FaultSeed+i, so one
	// drill seed reproduces every node's fault schedule.
	FaultSeed int64
	// CentralKMS provisions via the centralized service instead of the
	// decentralized MAP.
	CentralKMS bool
	// Secrets pre-provisions the engine secrets, bypassing key agreement —
	// the restart path of an HSM-backed centralized KMS deployment, where
	// the service re-provisions the same keys to re-attested enclaves.
	Secrets *kms.Secrets
}

// Cluster is an in-process N-node consortium network: the unit every
// experiment in the paper runs against.
type Cluster struct {
	Nodes   []*Node
	Root    *tee.RootOfTrust
	Secrets *kms.Secrets
	net     *p2p.Network
	opts    ClusterOptions // retained for RestartNode
	// Per-node disk-fault harness (DiskFaults only): the fault filesystem a
	// node's store runs over and the crash-point registry shared between the
	// store and the node.
	faults  []*faultfs.FS
	crashes []*vfs.CrashPoints
	// While StartDriver is in effect (nil otherwise): each node's proposer stop
	// function; rebuildNode starts one for the nodes it creates meanwhile.
	proposers []func()
}

// NewCluster boots a network: a software root of trust, per-node platforms,
// K-Protocol key agreement (decentralized MAP by default), engines, stores
// and consensus replicas.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 4
	}
	if opts.DiskFaults && opts.StoreDir == "" {
		// faultfs paths never touch the real disk; this names the virtual root.
		opts.StoreDir = "faultfs"
	}
	root, err := tee.NewRootOfTrust()
	if err != nil {
		return nil, err
	}
	network := p2p.NewNetwork(opts.Network)
	c := &Cluster{Root: root, net: network, opts: opts}
	if opts.DiskFaults {
		for i := 0; i < opts.Nodes; i++ {
			ffs := faultfs.New(opts.FaultSeed + int64(i))
			c.faults = append(c.faults, ffs)
			c.crashes = append(c.crashes, vfs.NewCrashPoints(ffs))
		}
	}

	// K-Protocol: node 0 bootstraps (or the central service does), the
	// rest join via mutual attestation.
	var kmNodes []*kms.NodeKM
	var platforms []*tee.Platform
	var central *kms.CentralKMS
	for i := 0; i < opts.Nodes; i++ {
		platform := tee.NewPlatform(root)
		platforms = append(platforms, platform)
		km, err := kms.NewNodeKM(platform, root.Verifier(), tee.Config{})
		if err != nil {
			return nil, err
		}
		kmNodes = append(kmNodes, km)
	}
	if opts.Secrets != nil {
		// Pre-provisioned secrets (restart path): skip agreement entirely
		// and build engines over the given keys.
		c.Secrets = opts.Secrets
		for i := 0; i < opts.Nodes; i++ {
			kmNodes[i].Enclave().Destroy()
		}
		return c.buildNodes(platforms, nil)
	}
	if opts.CentralKMS {
		central, err = kms.NewCentralKMS(root.Verifier(), kmNodes[0].Enclave().Measurement())
		if err != nil {
			return nil, err
		}
		for _, km := range kmNodes {
			req, err := km.Request()
			if err != nil {
				return nil, err
			}
			resp, err := central.Provision(req)
			if err != nil {
				return nil, err
			}
			if err := km.AcceptCentral(resp); err != nil {
				return nil, err
			}
		}
	} else {
		if err := kmNodes[0].Bootstrap(); err != nil {
			return nil, err
		}
		for i := 1; i < opts.Nodes; i++ {
			req, err := kmNodes[i].Request()
			if err != nil {
				return nil, err
			}
			resp, err := kmNodes[0].Serve(req)
			if err != nil {
				return nil, err
			}
			if err := kmNodes[i].Accept(resp); err != nil {
				return nil, err
			}
		}
	}

	return c.buildNodes(platforms, kmNodes)
}

// engineOpts resolves node i's engine options: the per-node override when
// present (surviving restarts and crash-recovery rebuilds), else the
// cluster-wide default.
func (c *Cluster) engineOpts(i int) core.Options {
	if o, ok := c.opts.PerNodeEngineOpts[i]; ok {
		return o
	}
	return c.opts.Node.EngineOpts
}

// nodeDir is node i's store directory under StoreDir (real or virtual).
func (c *Cluster) nodeDir(i int) string {
	return filepath.Join(c.opts.StoreDir, fmt.Sprintf("node-%d", i))
}

// storeOptions builds node i's LSM options, routing the store through the
// node's fault filesystem and crash points under DiskFaults.
func (c *Cluster) storeOptions(i int) storage.LSMOptions {
	var opts storage.LSMOptions
	if c.opts.DiskFaults {
		opts.FS = c.faults[i]
		opts.Crash = c.crashes[i]
		opts.MemtableBytes = 4 << 10
	}
	return opts
}

// openStore opens node i's store: a durable LSM store when StoreDir is set
// (over faultfs under DiskFaults), the in-memory store otherwise. Every
// durable open is a recovering open (OpenRecoveredStore): a clean shutdown is
// a crash that lost nothing.
func (c *Cluster) openStore(i int) (store storage.KVStore, quarantined bool, err error) {
	if c.opts.StoreDir != "" {
		lsm, quarantined, err := OpenRecoveredStore(c.nodeDir(i), c.storeOptions(i))
		if err != nil {
			return nil, quarantined, err
		}
		return lsm, quarantined, nil
	}
	mem := storage.NewMemStore()
	mem.SetReadLatency(c.opts.StoreReadLatency)
	mem.SetWriteLatency(c.opts.StoreWriteLatency)
	return mem, false, nil
}

// nodeConfig is node i's Config: the shared template plus the node's
// crash-point registry under DiskFaults.
func (c *Cluster) nodeConfig(i int) Config {
	cfg := c.opts.Node
	if c.crashes != nil {
		cfg.crash = c.crashes[i]
	}
	if w, ok := c.opts.PerNodeExecWorkers[i]; ok {
		cfg.ExecWorkers = w
	}
	return cfg
}

// buildNodes boots every node. With kmNodes nil, the engines receive
// c.Secrets directly (pre-provisioned restart path); otherwise each node's KM
// enclave provisions its CS enclave over local attestation and is destroyed.
func (c *Cluster) buildNodes(platforms []*tee.Platform, kmNodes []*kms.NodeKM) (*Cluster, error) {
	for i := range platforms {
		var km *kms.NodeKM
		if kmNodes != nil {
			km = kmNodes[i]
		}
		node, _, err := c.bootNode(i, platforms[i], km, c.nodeConfig(i))
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// bootNode is the one way node i of the cluster comes up, first boot and
// replacement alike: it joins the network, opens its store through crash
// recovery, creates and attests its CS enclave on platform, provisions it
// from km over local attestation (km nil: with the cluster secrets, the
// HSM-backed restart flow), and assembles both engines and the node.
func (c *Cluster) bootNode(i int, platform *tee.Platform, km *kms.NodeKM, cfg Config) (node *Node, quarantined bool, err error) {
	zone := 0
	if c.opts.Zones != nil {
		zone = c.opts.Zones[i]
	}
	endpoint, err := c.net.Join(p2p.NodeID(i), zone)
	if err != nil {
		return nil, false, err
	}
	store, quarantined, err := c.openStore(i)
	if err != nil {
		return nil, quarantined, err
	}
	defer func() {
		if err != nil {
			store.Close()
		}
	}()
	enclaveCfg := c.opts.Enclave
	if enclaveCfg.CodeIdentity == "" {
		enclaveCfg.CodeIdentity = core.CSEnclaveIdentity
	}
	cs, err := platform.CreateEnclave("cs", enclaveCfg)
	if err != nil {
		return nil, quarantined, err
	}
	secrets := c.Secrets
	if km != nil {
		// The KM enclave is destroyed once it has provisioned, to free EPC.
		if secrets, err = km.ProvisionCS(cs); err != nil {
			return nil, quarantined, err
		}
		if c.Secrets == nil {
			c.Secrets = secrets
		}
	}
	confEngine, err := core.NewConfidentialEngineOn(cs, secrets, store, c.engineOpts(i))
	if err != nil {
		return nil, quarantined, err
	}
	pubEngine := core.NewPublicEngine(store, c.engineOpts(i))
	return New(cfg, endpoint, c.opts.Nodes, confEngine, pubEngine, store), quarantined, nil
}

// RestartNode tears one node down and boots a replacement on the same
// network identity — the operational wipe-and-rejoin / restart drill. With
// wipe, the replacement starts from an empty store and must re-acquire all
// state from its peers (snapshot fast-sync when checkpoints are enabled);
// without wipe it recovers from its durable store (StoreDir required). The
// engines are rebuilt on a freshly attested enclave re-provisioned with the
// cluster secrets, which is the HSM-backed restart flow. Under StartDriver the
// replacement's proposer is started with it.
func (c *Cluster) RestartNode(i int, wipe bool) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("node: no node %d", i)
	}
	if !wipe && c.opts.StoreDir == "" {
		return fmt.Errorf("node: restart without wipe needs a durable StoreDir")
	}
	c.Nodes[i].Close()
	if wipe && c.opts.StoreDir != "" {
		if c.opts.DiskFaults {
			if err := c.faults[i].RemoveAll(c.nodeDir(i)); err != nil {
				return err
			}
		} else if err := os.RemoveAll(c.nodeDir(i)); err != nil {
			return err
		}
	}
	_, err := c.rebuildNode(i)
	return err
}

// rebuildNode boots a replacement node i on the same network identity, on a
// fresh platform. Reports whether crash recovery quarantined its store.
func (c *Cluster) rebuildNode(i int) (quarantined bool, err error) {
	node, quarantined, err := c.bootNode(i, tee.NewPlatform(c.Root), nil, c.nodeConfig(i))
	if err != nil {
		return quarantined, err
	}
	c.Nodes[i] = node
	if c.proposers != nil {
		c.proposers[i] = node.StartProposer()
	}
	return quarantined, nil
}

// ArmCrash arms the named crash point (vfs.CrashPointNames) on node i. The
// returned channel closes the instant live traffic drives the node through
// the point: the fault filesystem freezes at its durable image and the node
// begins failing stop. The harness should then CrashNode(i) to finish the
// kill and, later, ReviveNode(i). DiskFaults clusters only.
func (c *Cluster) ArmCrash(i int, point string) (<-chan struct{}, error) {
	if c.crashes == nil {
		return nil, fmt.Errorf("node: ArmCrash needs a DiskFaults cluster")
	}
	return c.crashes[i].Arm(point), nil
}

// CrashNode kills node i the way a power cut would: the fault filesystem
// freezes at its crash-consistent image (a no-op if an armed crash point
// already froze it) and the node is killed WITHOUT Close — no final
// memtable flush, no clean WAL shutdown, no store release. The dead store
// object is abandoned; ReviveNode reopens the directory from the frozen
// image. DiskFaults clusters only.
func (c *Cluster) CrashNode(i int) error {
	if c.crashes == nil {
		return fmt.Errorf("node: CrashNode needs a DiskFaults cluster")
	}
	c.crashes[i].Force()
	c.Nodes[i].Kill()
	return nil
}

// ReviveNode restarts node i after CrashNode: transient fault injection is
// calmed, the filesystem thaws onto its crash image, and the store reopens
// through crash recovery — WAL replay for the common case; quarantine plus
// a fresh store (rebuilt via snapshot fast-sync and block replay) when the
// image is corrupted beyond the WAL's torn-tail tolerance or a snapshot
// install was half done. Reports whether the store was quarantined.
func (c *Cluster) ReviveNode(i int) (quarantined bool, err error) {
	if c.crashes == nil {
		return false, fmt.Errorf("node: ReviveNode needs a DiskFaults cluster")
	}
	c.faults[i].Calm()
	c.faults[i].Reopen()
	c.crashes[i].Reset()
	if quarantined, err = c.rebuildNode(i); err == nil {
		mCrashRecoveries.Inc()
	}
	return quarantined, err
}

// FaultFS exposes node i's fault filesystem (nil outside DiskFaults) for
// transient-fault windows and stats.
func (c *Cluster) FaultFS(i int) *faultfs.FS {
	if c.faults == nil {
		return nil
	}
	return c.faults[i]
}

// Leader returns the current leader node.
func (c *Cluster) Leader() *Node {
	for _, n := range c.Nodes {
		if n.IsLeader() {
			return n
		}
	}
	return c.Nodes[0]
}

// EnvelopePublicKey returns the network's current pk_tx (the active key
// epoch's envelope public key).
func (c *Cluster) EnvelopePublicKey() []byte {
	return c.Nodes[0].ConfidentialEngine().EnvelopePublicKey()
}

// EnvelopeKeyInfo returns the current key epoch alongside its pk_tx, for
// clients that tag envelopes (core.Client.SetEnvelopeKey).
func (c *Cluster) EnvelopeKeyInfo() (uint64, []byte) {
	return c.Nodes[0].ConfidentialEngine().EnvelopeKeyInfo()
}

// CurrentEpoch reports node 0's active key epoch.
func (c *Cluster) CurrentEpoch() uint64 {
	return c.Nodes[0].CurrentEpoch()
}

// RotateEpoch submits a governance transaction scheduling a rotation onto
// the successor epoch, activating delay blocks past the current height.
// Returns the submitted transaction (for receipt tracking) and the rotation.
func (c *Cluster) RotateEpoch(delay uint64) (*chain.Tx, keyepoch.Rotation, error) {
	leader := c.Leader()
	rot := keyepoch.Rotation{
		NewEpoch:         leader.CurrentEpoch() + 1,
		ActivationHeight: leader.Height() + delay,
	}
	tx := &chain.Tx{Type: chain.TxTypeGovernance, Payload: rot.Encode()}
	if err := leader.SubmitTx(tx); err != nil {
		return nil, rot, err
	}
	return tx, rot, nil
}

// DeployEverywhere installs a contract on every node's engines (in
// production this happens through a deployment transaction; the harness
// short-circuits it for experiment setup).
func (c *Cluster) DeployEverywhere(addr, owner chain.Address, vm core.VMKind, code []byte, confidential bool, secver uint64) error {
	for _, n := range c.Nodes {
		engine := n.ConfidentialEngine()
		if !confidential {
			engine = n.PublicEngine()
		}
		if err := engine.DeployContract(addr, owner, vm, code, confidential, secver); err != nil {
			return fmt.Errorf("node %d: %w", n.ID(), err)
		}
	}
	return nil
}

// Submit sends a transaction through the leader.
func (c *Cluster) Submit(tx *chain.Tx) error {
	return c.Leader().SubmitTx(tx)
}

// ProcessRound drives one synchronous round by the proposer loop's rule: the
// leader pre-verifies its backlog and proposes one block, and the call
// returns once every node has committed it. Returns the number of
// transactions in the block: exactly what was pooled when no proposer runs.
// It is the exact-block primitive for tests and the benchmark's replay;
// everything else makes blocks with StartDriver and waits with WaitIdle.
func (c *Cluster) ProcessRound(timeout time.Duration) (int, error) {
	leader := c.Leader()
	leader.PreVerifyPending()
	target := leader.Height() + 1
	count, err := leader.ProposeBlock()
	if err != nil {
		return 0, err
	}
	for _, n := range c.Nodes {
		if err := n.WaitHeight(target, timeout); err != nil {
			return count, err
		}
	}
	return count, nil
}

// StartDriver starts every node's proposer (Node.StartProposer): from here
// the cluster produces blocks by itself (WaitIdle waits until it has drained
// everything submitted), and a node replaced by RestartNode or ReviveNode
// gets its proposer too. stop halts every proposer and waits. Both belong,
// like RestartNode, to the goroutine that owns the cluster. The duration is
// ignored; the parameter stays only because the benchmark harness calls
// StartDriver(0).
func (c *Cluster) StartDriver(time.Duration) (stop func()) {
	c.proposers = make([]func(), len(c.Nodes))
	for i, n := range c.Nodes {
		c.proposers[i] = n.StartProposer()
	}
	return func() {
		for _, stop := range c.proposers {
			stop()
		}
		c.proposers = nil
	}
}

// WaitIdle returns once the cluster has nothing left to do: every node's
// Backlog is 0 and every node stands at the same height, so each submitted
// transaction has committed everywhere. It re-reads the nodes every half
// millisecond until then or until timeout. Something must be producing blocks
// meanwhile (StartDriver); with nothing running, a pooled transaction never
// drains and WaitIdle returns an error at the timeout. So does a transaction
// that fails pre-verification while followers hold gossiped copies: only a
// leader pre-verifies and drops it, and a follower's copy keeps the cluster
// from going idle.
func (c *Cluster) WaitIdle(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(500 * time.Microsecond)
	defer poll.Stop()
	for {
		backlog, heights, idle := make([]int, len(c.Nodes)), make([]uint64, len(c.Nodes)), true
		for i, n := range c.Nodes {
			backlog[i], heights[i] = n.Backlog(), n.Height()
			idle = idle && backlog[i] == 0 && heights[i] == heights[0]
		}
		if idle {
			return nil
		}
		select {
		case <-deadline.C:
			hint := ""
			if c.proposers == nil {
				hint = "; no driver is running (StartDriver)"
			}
			return fmt.Errorf("node: cluster not idle after %v: backlog %v, heights %v%s", timeout, backlog, heights, hint)
		case <-poll.C:
		}
	}
}

// Net exposes the simulated network for fault injection (partitions, drop
// rates, stats).
func (c *Cluster) Net() *p2p.Network { return c.net }

// Close shuts the cluster down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.Close()
	}
}
