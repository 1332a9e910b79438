package node

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/metrics"
	"confide/internal/p2p"
)

// attestCounters snapshots the registry series the attestation tests
// certify from. The registry is process-wide, so every assertion is on a
// delta.
type attestCounters struct {
	accepted, rejected, absent uint64
	ecdh, local, relayed       uint64
}

func readAttestCounters() attestCounters {
	s := metrics.Default().Snapshot().Counters
	return attestCounters{
		accepted: s[`confide_node_verify_tag_total{outcome="accepted"}`],
		rejected: s[`confide_node_verify_tag_total{outcome="rejected"}`],
		absent:   s[`confide_node_verify_tag_total{outcome="absent"}`],
		ecdh:     s[`confide_core_envelope_opens_total{path="ecdh"}`],
		local:    s[`confide_core_envelope_opens_total{path="local"}`],
		relayed:  s[`confide_core_envelope_opens_total{path="relayed"}`],
	}
}

func (a attestCounters) since(b attestCounters) attestCounters {
	return attestCounters{
		accepted: a.accepted - b.accepted, rejected: a.rejected - b.rejected, absent: a.absent - b.absent,
		ecdh: a.ecdh - b.ecdh, local: a.local - b.local, relayed: a.relayed - b.relayed,
	}
}

// submitCredits submits n confidential credits through the leader and waits
// for gossip to land them in the pools of nodes.
func submitCredits(t *testing.T, c *Cluster, nodes []*Node, account string, n int) []*chain.Tx {
	t.Helper()
	client := newClusterClient(t, c)
	txs := make([]*chain.Tx, n)
	for i := range txs {
		tx, _, err := client.NewConfidentialTx(ledgerAddr, "credit", acct(account), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	return submitAndGossip(t, c, nodes, txs)
}

// submitAndGossip submits txs and waits for gossip to land them in the
// pools of nodes (a transaction gossiped in after its block committed would
// be pre-verified by the next ProcessRound and leave a cache entry behind,
// which these tests count).
func submitAndGossip(t *testing.T, c *Cluster, nodes []*Node, txs []*chain.Tx) []*chain.Tx {
	t.Helper()
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, node := range nodes {
		for node.UnverifiedPoolLen() < len(txs) {
			if time.Now().After(deadline) {
				t.Fatalf("gossip never reached node %d", node.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return txs
}

// proposeLeaderOnly commits one block the way a saturated cluster does: only
// the leader pre-verifies, so every follower reaches execution with nothing
// but what the block brings it. It is ProposeBlock with one seam: mutate
// edits the proposal after the enclave attested it, which is what a
// Byzantine proposer host can do to an attestation. nodes are the replicas
// expected to commit the block.
func proposeLeaderOnly(t *testing.T, c *Cluster, nodes []*Node, mutate func(*chain.Block)) *chain.Block {
	t.Helper()
	leader := c.Leader()
	leader.PreVerifyPending()
	leader.proposeMu.Lock()
	leader.mu.Lock()
	tipHeight, tipHash := leader.height, leader.prevHash
	leader.mu.Unlock()
	height, parent, _ := leader.sched.Predict(leader.replica.View(), tipHeight, tipHash)
	txs := leader.verified.PopBatch(leader.cfg.BlockMaxTxs)
	id := uint32(leader.endpoint.ID())
	block := &chain.Block{
		Header: chain.Header{Height: height, PrevHash: parent, Timestamp: uint64(time.Now().UnixNano()), Proposer: id},
		Txs:    txs,
	}
	block.ComputeTxRoot()
	block.Attestation = leader.confEngine.AttestPreVerified(height, id, txs)
	if len(block.Attestation) == 0 {
		t.Fatal("leader's enclave refused to attest its own verified pool")
	}
	if mutate != nil {
		mutate(block)
	}
	leader.sched.Track(height, block.Hash(), parent, txs)
	_, err := leader.replica.Propose(block.Encode())
	leader.proposeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.WaitHeight(height+1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return block
}

// requireIdenticalBlock certifies that every node committed the block at
// height byte-identically — same stored payload (hence header), same
// receipts — and that the stored form carries no keys.
func requireIdenticalBlock(t *testing.T, nodes []*Node, height uint64, txs []*chain.Tx) {
	t.Helper()
	want, found, err := nodes[0].store.Get(BlockKey(height))
	if err != nil || !found {
		t.Fatalf("node %d has no block %d (err=%v)", nodes[0].ID(), height, err)
	}
	for _, n := range nodes {
		raw, _, _ := n.store.Get(BlockKey(height))
		if !bytes.Equal(raw, want) {
			t.Errorf("node %d stored block %d differs from node %d's", n.ID(), height, nodes[0].ID())
		}
		block, err := n.BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		if core.AttestationCarriesKeys(block.Attestation) {
			t.Errorf("node %d: BlockAt(%d) carries a %d-byte attestation with keys", n.ID(), height, len(block.Attestation))
		}
		// WaitHeight returns at the height advance; the commit sweep (pools,
		// pre-verification entries) finishes under applyMu just after it.
		n.applyMu.Lock()
		n.applyMu.Unlock()
		if got := n.ConfidentialEngine().PreVerifiedCount(); got != 0 {
			t.Errorf("node %d: %d pre-verification entries outlive the commit", n.ID(), got)
		}
		for _, tx := range txs {
			base, err := receiptOf(nodes[0], tx)
			got, err2 := receiptOf(n, tx)
			if err != nil || err2 != nil || base.Status != chain.ReceiptOK || !bytes.Equal(got.Encode(), base.Encode()) {
				t.Fatalf("node %d: receipt diverges from node %d's (or failed)", n.ID(), nodes[0].ID())
			}
		}
	}
}

// sigChecks sums the signature checks both engines of each node ran.
func sigChecks(nodes []*Node) uint64 {
	var n uint64
	for _, node := range nodes {
		for _, e := range []*core.Engine{node.ConfidentialEngine(), node.PublicEngine()} {
			n += e.Profile().Snapshot()[core.OpTxVerify].Count
		}
	}
	return n
}

// TestKeyRelayAdoptedAndEveryFallback is the attestation's cluster contract.
// With the genuine attestation, three followers execute on relayed keys and
// nobody pays an ECDH or a signature check at execution. With it
// bit-flipped, truncated, stamped with an unknown epoch or removed, every
// follower falls back to the full open and check and the block commits
// byte-identically — an attestation can cost its shortcut, never a
// transaction or a block. The last two rounds run across a key-epoch
// rotation.
func TestKeyRelayAdoptedAndEveryFallback(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})
	const perBlock = 5
	followers := uint64(len(c.Nodes) - 1)

	type deltas struct{ accepted, rejected, absent, ecdh, relayed, sigChecks uint64 }
	fallback := func(outcome string) deltas {
		w := deltas{ecdh: followers * perBlock, sigChecks: followers * perBlock}
		switch outcome {
		case "rejected":
			w.rejected = followers + 1 // the leader applies its own mangled attestation too
		case "absent":
			w.absent = followers + 1
		}
		return w
	}
	genuine := deltas{accepted: followers + 1, relayed: followers * perBlock}

	rounds := []struct {
		name   string
		mutate func(*chain.Block)
		want   deltas
		rotate bool
	}{
		{name: "genuine", want: genuine},
		{name: "bit-flipped", want: fallback("rejected"), mutate: func(b *chain.Block) { b.Attestation[len(b.Attestation)/2] ^= 1 }},
		{name: "truncated", want: fallback("rejected"), mutate: func(b *chain.Block) { b.Attestation = b.Attestation[:len(b.Attestation)-7] }},
		{name: "unknown epoch", want: fallback("rejected"), mutate: func(b *chain.Block) { binary.BigEndian.PutUint64(b.Attestation[:8], 40) }},
		{name: "removed", want: fallback("absent"), mutate: func(b *chain.Block) { b.Attestation = nil }},
		{name: "genuine after rotation", want: genuine, rotate: true},
		{name: "bit-flipped after rotation", want: fallback("rejected"), mutate: func(b *chain.Block) { b.Attestation[9] ^= 1 }},
	}
	for _, r := range rounds {
		if r.rotate {
			rotateAndActivate(t, c, 2)
		}
		txs := submitCredits(t, c, c.Nodes, "relay", perBlock)
		var followerNodes []*Node
		for _, n := range c.Nodes {
			if n != c.Leader() {
				followerNodes = append(followerNodes, n)
			}
		}
		before, checks := readAttestCounters(), sigChecks(followerNodes)
		block := proposeLeaderOnly(t, c, c.Nodes, r.mutate)
		if len(block.Txs) != perBlock {
			t.Fatalf("%s: block carries %d txs, want %d", r.name, len(block.Txs), perBlock)
		}
		requireIdenticalBlock(t, c.Nodes, block.Header.Height, txs)
		d := readAttestCounters().since(before)
		got := deltas{d.accepted, d.rejected, d.absent, d.ecdh, d.relayed, sigChecks(followerNodes) - checks}
		if got != r.want {
			t.Errorf("%s: {accepted rejected absent ecdh relayed sigChecks} = %v, want %v", r.name, got, r.want)
		}
		if d.local != perBlock {
			t.Errorf("%s: %d local-key opens, want %d (the leader's)", r.name, d.local, perBlock)
		}
	}
	want := []byte{byte(len(rounds) * perBlock)}
	for _, n := range c.Nodes {
		if got := readBalance(t, n, c, "relay"); !bytes.Equal(got, want) {
			t.Errorf("node %d balance = %v, want %v", n.ID(), got, want)
		}
	}
}

// TestFollowerOpensAttestationInEnclave pins where a follower checks an
// attestation: inside its enclave, one ecall per applied block, a public-only
// block included. A bit-flipped attestation then withdraws every shortcut at
// once — the vouched signatures along with the keys — so each follower
// checks every signature of the block itself.
func TestFollowerOpensAttestationInEnclave(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4, Node: Config{ResealRate: -1}})
	pubAddr := chain.AddressFromBytes([]byte("pub-ledger"))
	if err := c.DeployEverywhere(pubAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), false, 1); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := core.NewClient(nil)
	const perBlock = 4
	pubCredits := func() []*chain.Tx {
		txs := make([]*chain.Tx, perBlock)
		for i := range txs {
			tx, err := pubClient.NewPublicTx(pubAddr, "credit", acct("pub"), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			txs[i] = tx
		}
		return submitAndGossip(t, c, c.Nodes, txs)
	}
	flip := func(b *chain.Block) { b.Attestation[len(b.Attestation)/2] ^= 1 }
	leader := c.Leader()
	var followers []*Node
	for _, n := range c.Nodes {
		if n != leader {
			followers = append(followers, n)
		}
	}
	for _, r := range []struct {
		name      string
		submit    func() []*chain.Tx
		mutate    func(*chain.Block)
		sigChecks uint64 // per follower
	}{
		{name: "public only", submit: pubCredits},
		{name: "public only, bit-flipped", submit: pubCredits, mutate: flip, sigChecks: perBlock},
		{name: "confidential, bit-flipped", submit: func() []*chain.Tx { return submitCredits(t, c, c.Nodes, "conf", perBlock) }, mutate: flip, sigChecks: perBlock},
	} {
		txs := r.submit()
		ecalls := make([]uint64, len(followers))
		checks := make([]uint64, len(followers))
		for i, n := range followers {
			ecalls[i] = n.ConfidentialEngine().Enclave().Stats().Ecalls
			checks[i] = sigChecks([]*Node{n})
		}
		block := proposeLeaderOnly(t, c, c.Nodes, r.mutate)
		requireIdenticalBlock(t, c.Nodes, block.Header.Height, txs)
		public := block.Txs[0].Type == chain.TxTypePublic
		if stored, err := c.Nodes[0].BlockAt(block.Header.Height); err != nil || public && len(stored.Attestation) == 0 {
			t.Errorf("%s: a keyless attestation must be stored with its block (err=%v)", r.name, err)
		}
		for i, n := range followers {
			if got := sigChecks([]*Node{n}) - checks[i]; got != r.sigChecks {
				t.Errorf("%s: follower %d checked %d signatures, want %d", r.name, n.ID(), got, r.sigChecks)
			}
			if !public {
				continue // confidential execution makes ecalls of its own
			}
			if got := n.ConfidentialEngine().Enclave().Stats().Ecalls - ecalls[i]; got != 1 {
				t.Errorf("%s: follower %d made %d ecalls applying the block, want 1", r.name, n.ID(), got)
			}
		}
	}
}

// TestStoredBlocksCarryNoRelay pins the no-persistence rule: relayed keys are
// transport only, so the bytes under blockKey — which are also what a lagging
// peer's catch-up fetch is served — contain no attestation that carries them.
// A one-time key gains no lifetime from having been relayed.
func TestStoredBlocksCarryNoRelay(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	txs := submitCredits(t, c, c.Nodes, "store", 4)
	var att []byte
	block := proposeLeaderOnly(t, c, c.Nodes, func(b *chain.Block) { att = append([]byte(nil), b.Attestation...) })
	height := block.Header.Height
	if !bytes.Contains(block.Encode(), att) || !core.AttestationCarriesKeys(att) {
		t.Fatal("the proposal itself must carry the attestation and its keys")
	}
	requireIdenticalBlock(t, c.Nodes, height, txs)
	for _, n := range c.Nodes {
		raw, _, _ := n.store.Get(BlockKey(height))
		if bytes.Contains(raw, att[8:]) {
			t.Errorf("node %d persisted the attestation under blockKey", n.ID())
		}
		stored, err := chain.DecodeBlock(raw)
		if err != nil || len(stored.Attestation) != 0 {
			t.Errorf("node %d: stored block carries a %d-byte attestation (err=%v)", n.ID(), len(stored.Attestation), err)
		}
		if seq, ok := n.seqOf(height); !ok || !bytes.Equal(n.readCommitted(seq), raw) {
			t.Errorf("node %d does not serve block %d's stored bytes to a lagging peer", n.ID(), height)
		}
	}
}

// TestWipedFollowerRejoinsWithoutRelays wipes a follower while the other
// three commit attested blocks, then lets it rejoin through block catch-up,
// which serves stored blocks and hence no keys: it must take the full open
// and check for every transaction and still end byte-identical to the
// followers that adopted every attestation.
func TestWipedFollowerRejoinsWithoutRelays(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	victim := victimOf(c)
	var rest []*Node
	var restIDs []p2p.NodeID
	for i, n := range c.Nodes {
		if i != victim {
			rest = append(rest, n)
			restIDs = append(restIDs, n.ID())
		}
	}
	c.Net().Partition([][]p2p.NodeID{{c.Nodes[victim].ID()}, restIDs})

	const blocks, perBlock = 6, 3
	for b := 0; b < blocks; b++ {
		submitCredits(t, c, rest, "rejoin", perBlock)
		proposeLeaderOnly(t, c, rest, nil)
	}
	tip := rest[0].Height()

	// Rebuild the victim from nothing while it is still cut off, give it the
	// contract (the harness deploys out of band), then let it catch up.
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Nodes[victim]
	if err := rejoined.ConfidentialEngine().DeployContract(ledgerAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), true, 1); err != nil {
		t.Fatal(err)
	}
	before, checks := readAttestCounters(), sigChecks([]*Node{rejoined})
	syncBefore := mSyncPathBlocks.Value()
	c.Net().Heal()
	if err := rejoined.WaitHeight(tip, 15*time.Second); err != nil {
		t.Fatalf("wiped follower never caught up: %v", err)
	}
	rejoined.applyMu.Lock() // the last caught-up block's application has finished
	rejoined.applyMu.Unlock()
	d := readAttestCounters().since(before)
	if got := mSyncPathBlocks.Value() - syncBefore; got < blocks {
		t.Errorf("%d blocks came by committed fetch, want all %d", got, blocks)
	}
	if d.absent != blocks || d.ecdh != blocks*perBlock || d.accepted != 0 || d.relayed != 0 {
		t.Errorf("rejoin: absent=%d ecdh=%d accepted=%d relayed=%d, want %d %d 0 0",
			d.absent, d.ecdh, d.accepted, d.relayed, blocks, blocks*perBlock)
	}
	if got := sigChecks([]*Node{rejoined}) - checks; got != blocks*perBlock {
		t.Errorf("rejoin: %d signature checks, want %d", got, blocks*perBlock)
	}
	for h := uint64(0); h < tip; h++ {
		block, err := rejoined.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalBlock(t, c.Nodes, h, block.Txs)
	}
	want := readBalance(t, rest[0], c, "rejoin")
	if got := readBalance(t, rejoined, c, "rejoin"); !bytes.Equal(got, want) || want[0] != blocks*perBlock {
		t.Errorf("rejoined balance %v, survivors' %v, want [%d]", got, want, blocks*perBlock)
	}

	// Back in the ring, the next block commits on all four (the rejoined
	// replica adopts its attestation when consensus delivers it the proposal,
	// and takes the full open again if a committed fetch gets there first).
	txs := submitCredits(t, c, c.Nodes, "rejoin", perBlock)
	before = readAttestCounters()
	block := proposeLeaderOnly(t, c, c.Nodes, nil)
	requireIdenticalBlock(t, c.Nodes, block.Header.Height, txs)
	if d := readAttestCounters().since(before); d.accepted < 3 || d.accepted+d.absent != 4 || d.rejected != 0 {
		t.Errorf("post-rejoin block: accepted=%d absent=%d rejected=%d", d.accepted, d.absent, d.rejected)
	}
}

// TestLatePreVerifyLeavesNoKey: a transaction popped for pre-verification
// while its block commits is refused by promoteVerified, and the metadata
// PreVerifyBatch cached for it on the way (k_tx included) must not outlive
// the refusal — the commit's own DropPreVerified already ran.
func TestLatePreVerifyLeavesNoKey(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Nodes: 4})
	pubAddr := chain.AddressFromBytes([]byte("pub-ledger"))
	if err := c.DeployEverywhere(pubAddr, chain.AddressFromBytes([]byte("own")), core.VMCVM, ledgerModule(t), false, 1); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := core.NewClient(nil)
	ctx, _, err := newClusterClient(t, c).NewConfidentialTx(ledgerAddr, "credit", acct("late"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	ptx, err := pubClient.NewPublicTx(pubAddr, "credit", acct("late"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	n, txs := c.Leader(), []*chain.Tx{ctx, ptx}
	for _, tx := range txs {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, c)
	// The in-transit copy: back in the un-verified pool after the commit.
	for _, tx := range txs {
		if err := n.unverified.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if moved := n.PreVerifyPending(); moved != 0 {
		t.Fatalf("%d committed transactions re-entered the verified pool", moved)
	}
	if got := n.ConfidentialEngine().PreVerifiedCount(); got != 0 {
		t.Fatalf("confidential engine still caches %d pre-verification entries", got)
	}
	if got := n.PublicEngine().PreVerifiedCount(); got != 0 {
		t.Fatalf("public engine still caches %d pre-verification entries", got)
	}
}
