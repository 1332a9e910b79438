package core

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/cvm"
	"confide/internal/cvm/compile"
	"confide/internal/evm"
	"confide/internal/keyepoch"
	"confide/internal/kms"
	"confide/internal/storage"
	"confide/internal/tee"
)

// Options toggles the engine's optimizations — each maps to one bar of the
// paper's Figure 12 ablation.
type Options struct {
	// CodeCache enables the decoded-program cache (OPT1).
	CodeCache bool
	// MemPool recycles VM linear memories through the enclave pool (OPT1).
	MemPool bool
	// PreVerify enables the pre-verification metadata cache (OPT3).
	PreVerify bool
	// Fuse enables superinstruction fusion in CONFIDE-VM (OPT4).
	Fuse bool
	// Compile enables the CONFIDE-VM ahead-of-time compiler: at deploy time
	// (and on first call) fused programs are lowered to closure-threaded
	// code cached alongside the decoded form; programs the compiler
	// declines fall back to the interpreter transparently. Requires
	// CodeCache (compiled units live in its entries).
	Compile bool
	// GasLimit per transaction; 0 = VM default.
	GasLimit uint64
	// EpochWindow is the key-epoch acceptance window (how many epochs behind
	// the current one an envelope may be sealed to); 0 selects
	// keyepoch.DefaultWindow.
	EpochWindow uint64
}

// AllOptimizations turns every engine optimization on (the production
// configuration).
func AllOptimizations() Options {
	return Options{CodeCache: true, MemPool: true, PreVerify: true, Fuse: true, Compile: true}
}

// Engine executes smart-contract transactions. In confidential mode it is
// the paper's Confidential-Engine: a contract-service enclave hosting the
// pre-processor, the VMs and the SDM, driven by the secrets provisioned via
// the K-Protocol. In public mode (no enclave, no secrets) it is the
// platform's ordinary Public-Engine, so the two execution paths share one
// implementation and measurements isolate exactly the cost of
// confidentiality.
type Engine struct {
	enclave *tee.Enclave
	monitor *tee.Monitor
	// ring versions the provisioned secrets into key epochs; epoch 1 is
	// exactly the K-Protocol material, later epochs derive from the ratchet.
	ring      *keyepoch.Ring
	sdm       *SDM
	codeCache *cvm.CodeCache
	preCache  *preVerifyCache
	opts      Options
	// hostPool recycles VM linear memories in the public engine (the paper
	// ports the memory-management optimizations to the public engine too);
	// the confidential engine uses the enclave's pool instead.
	hostPool sync.Pool
}

// CSEnclaveIdentity is the contract-service enclave's code identity.
const CSEnclaveIdentity = "confide-cs-v1"

// NewConfidentialEngine builds the TEE-backed engine. The contract-service
// enclave is created on platform; secrets normally arrive from the node's
// KM enclave via kms.NodeKM.ProvisionCS.
func NewConfidentialEngine(platform *tee.Platform, secrets *kms.Secrets, store storage.KVStore, enclaveCfg tee.Config, opts Options) (*Engine, error) {
	if enclaveCfg.CodeIdentity == "" {
		enclaveCfg.CodeIdentity = CSEnclaveIdentity
	}
	suffix, err := randomHex()
	if err != nil {
		return nil, err
	}
	enclave, err := platform.CreateEnclave("cs-"+suffix, enclaveCfg)
	if err != nil {
		return nil, err
	}
	return NewConfidentialEngineOn(enclave, secrets, store, opts)
}

// NewConfidentialEngineOn builds the confidential engine over an existing
// contract-service enclave — the production flow, where the CS enclave is
// created first, receives the secrets from the KM enclave over local
// attestation, and then hosts the engine.
func NewConfidentialEngineOn(enclave *tee.Enclave, secrets *kms.Secrets, store storage.KVStore, opts Options) (*Engine, error) {
	if secrets == nil {
		return nil, errors.New("core: confidential engine requires provisioned secrets")
	}
	e := &Engine{
		enclave: enclave,
		monitor: tee.NewMonitor(enclave, 1<<12),
		ring:    keyepoch.NewRing(secrets.Envelope, secrets.StatesKey, opts.EpochWindow),
		opts:    opts,
	}
	e.sdm = NewSDM(store, enclave, e.ring)
	e.initCaches()
	return e, nil
}

// NewPublicEngine builds the plain engine (no TEE, no encryption).
func NewPublicEngine(store storage.KVStore, opts Options) *Engine {
	e := &Engine{opts: opts}
	e.sdm = NewSDM(store, nil, nil)
	e.initCaches()
	return e
}

// codeCachePrograms bounds the decoded-program cache.
const codeCachePrograms = 128

func (e *Engine) initCaches() {
	if e.opts.CodeCache {
		e.codeCache = cvm.NewCodeCache(codeCachePrograms)
	}
	if e.opts.PreVerify {
		e.preCache = newPreVerifyCache()
	}
}

// randomHex names an enclave uniquely on its platform.
func randomHex() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// checkpointMACLabel scopes the snapshot-manifest MAC key under k_states.
const checkpointMACLabel = "confide/checkpoint-manifest-mac"

// CheckpointMACKey derives the key that seals snapshot manifests, under the
// current epoch's k_states. It comes from k_states, which only provisioned
// (attested) Confidential-Engines hold, so a manifest MAC proves an enclave
// in the consortium's trust ring exported that checkpoint. A public engine
// (no secrets) returns nil and the snapshot layer runs unauthenticated.
func (e *Engine) CheckpointMACKey() []byte {
	return e.CheckpointMACKeyFor(e.CurrentEpoch())
}

// CheckpointMACKeyFor derives the manifest MAC key for a specific epoch, so
// a rejoining node can verify a manifest exported by a peer under a newer
// epoch (forward epochs derive from the ratchet without advancing the ring).
// Returns nil for a public engine or a zeroized epoch.
func (e *Engine) CheckpointMACKeyFor(epoch uint64) []byte {
	return e.attestSubKey(epoch, checkpointMACLabel)
}

// attestLabel scopes the AEAD key that seals a block's attestation, under
// k_states: only provisioned enclaves in the ring can seal or open one.
const attestLabel = "confide/ktx-relay"

// attestSubKey derives the labelled sub-key of an epoch's k_states. Nil when
// the engine holds no ring secrets for that epoch.
func (e *Engine) attestSubKey(epoch uint64, label string) []byte {
	if e.ring == nil || epoch == 0 {
		return nil
	}
	key, err := e.ring.DeriveStatesKey(epoch)
	if err != nil {
		return nil
	}
	return crypto.DeriveSubKey(key, label)
}

// attestBinding is what an attestation is bound to: (height, proposer,
// txRoot). Binding the proposer keeps an attestation minted for one
// replica's block from validating another replica's block with the same
// height and root.
func attestBinding(height uint64, proposer uint32, txRoot chain.Hash) []byte {
	msg := make([]byte, 8+4+32)
	binary.BigEndian.PutUint64(msg[:8], height)
	binary.BigEndian.PutUint32(msg[8:12], proposer)
	copy(msg[12:], txRoot[:])
	return msg
}

// AttestPreVerified produces the proposer-side attestation for a block: the
// enclave's claim that every transaction in txs passed signature
// pre-verification (step P3) inside THIS enclave before proposal, sealed
// together with the k_tx this enclave recovered for each confidential
// transaction, so the follower enclaves skip both the signature checks and
// the envelopes' private-key opens: the cluster pays one of each per
// transaction, not one per replica. The claim is enforced at the enclave
// boundary, not assumed: the tx root is recomputed from the supplied
// transactions and the attestation is refused (nil) unless every public and
// confidential transaction has a locally verified pre-verification cache
// entry. Attestation-seeded entries do not qualify — trust must be grounded
// in a signature this enclave checked and a key this enclave recovered
// itself, never chained transitively through another proposer's
// attestation. Cache lookups, root computation and the seal all run in one
// ecall, so an untrusted host can neither substitute the root nor skip the
// cache check; forging an attestation over unverified transactions requires
// compromising the enclave itself.
//
// The attestation is the epoch (8 bytes, so followers derive the matching
// key across rotations), then the keys in block order (32 B each, none for
// a public-only block) sealed with AES-GCM under the epoch's attestation
// sub-key with the block binding as AAD: GCM authenticates the claim even
// when it seals no keys, and it opens only for this (height, proposer, tx
// set). A public engine (no ring) returns nil and blocks go out unattested —
// followers then verify every signature themselves. Governance transactions
// are outside the claim (they carry no account signature and are checked
// semantically at execution).
func (e *Engine) AttestPreVerified(height uint64, proposer uint32, txs []*chain.Tx) (att []byte) {
	if e.ring == nil || e.preCache == nil {
		return nil
	}
	_ = e.enclave.Ecall(len(txs)*32, tee.CopyInOut, func() error {
		leaves := make([]chain.Hash, len(txs))
		var keys []byte
		for i, tx := range txs {
			leaves[i] = tx.Hash()
			if tx.Type != chain.TxTypePublic && tx.Type != chain.TxTypeConfidential {
				continue
			}
			meta, ok := e.preCache.get(leaves[i])
			if !ok || !meta.verified || meta.attested {
				return nil
			}
			if tx.Type == chain.TxTypeConfidential {
				if len(meta.ktx) != crypto.SymKeySize {
					return nil
				}
				keys = append(keys, meta.ktx...)
			}
		}
		epoch := e.ring.Current()
		sealed, err := crypto.SealAEAD(e.attestSubKey(epoch, attestLabel), keys, attestBinding(height, proposer, chain.MerkleRoot(leaves)))
		if err != nil {
			return nil // followers fall back to the full open
		}
		att = append(binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(sealed)), epoch), sealed...)
		return nil
	})
	return att
}

// AttestationCarriesKeys reports whether att is longer than an attestation
// sealing no keys: the node strips exactly those before storing a block, so
// a one-time key gains no lifetime from having been relayed.
func AttestationCarriesKeys(att []byte) bool { return len(att) > 8+crypto.AEADOverhead }

// openAttestation opens a proposer's attestation for the block (height,
// proposer, txRoot) and returns the keys it seals. It runs inside an ecall:
// the attestation sub-key never leaves the enclave. False — an unknown or
// stale epoch, or a seal that does not authenticate for this block — means
// the attestation vouches for nothing.
func (e *Engine) openAttestation(height uint64, proposer uint32, txRoot chain.Hash, att []byte) ([]byte, bool) {
	if e.ring == nil || len(att) < 8 {
		return nil, false
	}
	epoch := binary.BigEndian.Uint64(att[:8])
	if !e.ring.Accepts(epoch) {
		return nil, false
	}
	// A sub-key this ring can no longer derive fails the open like any other
	// wrong key.
	keys, err := crypto.OpenAEAD(e.attestSubKey(epoch, attestLabel), att[8:], attestBinding(height, proposer, txRoot))
	return keys, err == nil
}

// AdoptAttestation opens, in one ecall, the attestation of the block
// (height, proposer, txRoot) whose transactions are txs. When it
// authenticates and seals one key per confidential transaction, each of
// those transactions gets an attested cache entry that both vouches for its
// signature and carries its k_tx, so execution decrypts symmetrically and
// skips the check; true then also vouches for the block's public
// transactions, which the caller hands to the engine that runs them
// (TrustPreVerified). Attested entries never ground a new attestation, and
// they leave with DropPreVerified like any other entry; an entry this
// enclave opened itself is kept. False adopts nothing and only withdraws the
// shortcut; it never rejects a transaction or a block.
func (e *Engine) AdoptAttestation(height uint64, proposer uint32, txRoot chain.Hash, txs []*chain.Tx, att []byte) bool {
	if e.preCache == nil {
		return false
	}
	adopted := false
	_ = e.enclave.Ecall(len(att), tee.CopyInOut, func() error {
		keys, ok := e.openAttestation(height, proposer, txRoot, att)
		if !ok {
			return nil
		}
		var conf []chain.Hash
		for _, tx := range txs {
			if tx.Type == chain.TxTypeConfidential {
				conf = append(conf, tx.Hash())
			}
		}
		if len(keys) != len(conf)*crypto.SymKeySize {
			return nil
		}
		for i, h := range conf {
			if meta, ok := e.preCache.get(h); ok && len(meta.ktx) > 0 {
				continue // this enclave's own open stands
			}
			ktx := keys[i*crypto.SymKeySize : (i+1)*crypto.SymKeySize]
			e.preCache.put(h, preMeta{ktx: ktx, verified: true, attested: true})
		}
		mPreverifyAttested.Add(uint64(len(conf)))
		adopted = true
		return nil
	})
	return adopted
}

// VerifyPreVerifyTag reports whether att authenticates for the block
// (height, proposer, txRoot) under this enclave's ring, adopting nothing.
func (e *Engine) VerifyPreVerifyTag(height uint64, proposer uint32, txRoot chain.Hash, att []byte) bool {
	ok := false
	_ = e.enclave.Ecall(len(att), tee.CopyInOut, func() error {
		_, ok = e.openAttestation(height, proposer, txRoot, att)
		return nil
	})
	return ok
}

// Confidential reports whether this engine runs in confidential mode (holds
// ring secrets and a CS enclave).
func (e *Engine) Confidential() bool { return e.ring != nil }

// CurrentEpoch reports the engine's active key epoch (0 for a public
// engine, which has no keys to version).
func (e *Engine) CurrentEpoch() uint64 {
	if e.ring == nil {
		return 0
	}
	return e.ring.Current()
}

// EpochWindow reports the acceptance window width (0 for a public engine).
func (e *Engine) EpochWindow() uint64 {
	if e.ring == nil {
		return 0
	}
	return e.ring.Window()
}

// AdvanceEpoch rotates the engine onto the next key epoch. The node calls
// it when the chain reaches a governance-ordered activation height, so every
// replica advances at the same block.
func (e *Engine) AdvanceEpoch() (uint64, error) {
	if e.ring == nil {
		return 0, errors.New("core: public engine has no key epochs")
	}
	return e.ring.Advance()
}

// AdvanceEpochTo ratchets the engine forward to the target epoch (no-op when
// already there). Recovery and snapshot install use it to adopt the chain's
// committed epoch.
func (e *Engine) AdvanceEpochTo(target uint64) error {
	if e.ring == nil {
		if target <= 1 {
			return nil
		}
		return errors.New("core: public engine has no key epochs")
	}
	return e.ring.AdvanceTo(target)
}

// StaleEpochsRetained reports whether any pre-current epoch secrets are
// still held — i.e. whether the re-seal sweep still has (potential) work.
func (e *Engine) StaleEpochsRetained() bool {
	return e.ring != nil && e.ring.Oldest() < e.ring.Current()
}

// ZeroizeDrainedEpochs erases retired epoch secrets that have fallen outside
// the acceptance window. Call only after a full re-seal sweep reported Done
// (no sealed record still carries a stale tag). Returns the number of epochs
// zeroized.
func (e *Engine) ZeroizeDrainedEpochs() int {
	if e.ring == nil {
		return 0
	}
	return e.ring.ZeroizeRetired()
}

// SettleWrites ends the block whose writes AppendWrites made readable: landed
// reports that the block's batch reached the store. Until then later
// transactions read the block's writes; after it, only keys the read cache
// already held keep theirs in memory, and a block that failed keeps none.
func (e *Engine) SettleWrites(landed bool) { e.sdm.settle(landed) }

// InvalidateStateCache drops the SDM's read cache. The node calls this
// after installing a state snapshot, whose writes land in the store
// directly and would otherwise be shadowed by stale cached plaintext.
func (e *Engine) InvalidateStateCache() { e.sdm.InvalidateCache() }

// Profile exposes this engine's own Table 1 counts (ROADMAP item 24 retires it).
func (e *Engine) Profile() *Profile { return &e.sdm.ops }

// Monitor exposes the enclave's exit-less status stream (nil in public
// mode).
func (e *Engine) Monitor() *tee.Monitor { return e.monitor }

// Enclave exposes the CS enclave for stats (nil in public mode).
func (e *Engine) Enclave() *tee.Enclave { return e.enclave }

// EnvelopePublicKey returns the current epoch's pk_tx for clients
// (confidential mode only).
func (e *Engine) EnvelopePublicKey() []byte {
	_, pub := e.EnvelopeKeyInfo()
	return pub
}

// EnvelopeKeyInfo returns the current epoch number alongside its pk_tx, so
// clients can tag the envelopes they seal.
func (e *Engine) EnvelopeKeyInfo() (uint64, []byte) {
	if e.ring == nil {
		return 0, nil
	}
	return e.ring.PublicKey()
}

// Attest produces the engine's remote-attestation report with the pk_tx
// fingerprint locked into the report data, which is how clients defeat
// man-in-the-middle key substitution.
func (e *Engine) Attest() (tee.Report, error) {
	if e.enclave == nil {
		return tee.Report{}, errors.New("core: public engine has no enclave")
	}
	fp := crypto.PublicFingerprint(e.EnvelopePublicKey())
	return e.enclave.RemoteAttest(fp[:])
}

// status streams an error/status line out of the enclave through the
// exit-less monitor ring (§5.3). Messages describe engine conditions only
// — never application data.
func (e *Engine) status(msg string) {
	if e.monitor != nil {
		e.monitor.Push(msg)
	}
}

// DeployContract installs code at an address. Confidential deployments are
// only accepted by the confidential engine and store the code sealed under
// k_states with the contract identity, owner and security version as
// authenticated data.
func (e *Engine) DeployContract(addr chain.Address, owner chain.Address, vm VMKind, code []byte, confidential bool, secver uint64) error {
	if confidential && !e.Confidential() {
		return errors.New("core: confidential contracts require the confidential engine")
	}
	// Validate eagerly so a bad deploy fails loudly, not at first call;
	// stack analysis keeps provably stack-unsafe bytecode off the chain.
	if vm == VMCVM {
		prog, err := cvm.LoadProgram(code, cvm.BuildOptions{})
		if err != nil {
			return fmt.Errorf("core: deploy: %w", err)
		}
		if err := cvm.AnalyzeProgram(prog); err != nil {
			return fmt.Errorf("core: deploy: %w", err)
		}
		// Warm the code cache at deploy time so the compile cost (and the
		// decline decision) is paid once, off the transaction path.
		if e.opts.Compile && e.codeCache != nil {
			_, _, _ = e.codeCache.LoadWithArtifact(code, cvm.BuildOptions{Fuse: e.opts.Fuse}, compileArtifact)
		}
	}
	rec := &ContractRecord{VM: vm, Confidential: confidential, SecVer: secver, Owner: owner}
	return e.sdm.storeContract(addr, rec, code)
}

// ExecResult is the outcome of executing one transaction: the plaintext
// receipt, the bytes to persist for it (sealed under k_tx when
// confidential), the buffered state writes (sealed under k_states where
// required), and the conflict-detection sets for the parallel scheduler.
type ExecResult struct {
	Receipt       *chain.Receipt
	StoredReceipt []byte
	TxHash        chain.Hash
	ReadSet       map[string]struct{}
	WriteKeys     map[string]struct{}
	// appendWrites seals and batches the write set (invoked at commit).
	appendWrites func(batch *storage.Batch) error
}

// AppendWrites seals the transaction's state writes into batch; the node
// calls it at block commit, after the scheduler has ordered results. The
// writes stay readable to later transactions until the engine's SettleWrites.
func (r *ExecResult) AppendWrites(batch *storage.Batch) error {
	batch.Put(ReceiptKey(r.TxHash), r.StoredReceipt)
	return r.appendWrites(batch)
}

// NewOrderedResult builds an ExecResult for a transaction the platform
// applies itself rather than a contract VM — governance actions like a key
// rotation. The receipt persists in the clear (governance is public by
// construction) and the optional puts land verbatim at commit. Empty
// conflict sets: platform transactions serialize through block order, not
// the OCC scheduler.
func NewOrderedResult(receipt *chain.Receipt, puts map[string][]byte) *ExecResult {
	return &ExecResult{
		Receipt:       receipt,
		StoredReceipt: receipt.Encode(),
		TxHash:        receipt.TxHash,
		ReadSet:       map[string]struct{}{},
		WriteKeys:     map[string]struct{}{},
		appendWrites: func(batch *storage.Batch) error {
			for k, v := range puts {
				batch.Put([]byte(k), v)
			}
			return nil
		},
	}
}

// Execute runs one wire transaction to completion (without committing state
// — the caller owns the batch). Confidential transactions (TYPE=1) require
// the confidential engine; public ones (TYPE=0) run on either. What the
// pre-verification cache holds for the transaction decides which of the
// pre-processor's steps (preprocess.go) are left to run here.
func (e *Engine) Execute(tx *chain.Tx) (*ExecResult, error) {
	var meta preMeta
	if e.preCache != nil {
		meta, _ = e.preCache.get(tx.Hash())
	}
	switch tx.Type {
	case chain.TxTypePublic:
		raw, err := chain.DecodeRawTx(tx.Payload)
		if err == nil && !meta.verified {
			err = e.checkSignature(raw)
		}
		if err != nil {
			return nil, err
		}
		mExecPublic.Inc()
		return e.executeRaw(tx, raw, nil)

	case chain.TxTypeConfidential:
		var raw *chain.RawTx
		var ktx []byte
		epoch, env, err := e.epochGate(tx.Payload)
		if err == nil {
			err = e.enclave.Ecall(len(tx.Payload), tee.CopyInOut, func() (err error) {
				raw, ktx, err = e.openForExecution(epoch, env, meta)
				return err
			})
		}
		if err != nil {
			e.status("pre-processor: envelope rejected: " + err.Error())
			return nil, err
		}
		mExecConfidential.Inc()
		return e.executeRaw(tx, raw, ktx)

	default:
		return nil, fmt.Errorf("core: unknown transaction type %d", tx.Type)
	}
}

// openForExecution recovers Tx_raw and k_tx from a gated envelope, using the
// transaction's pre-verification entry when there is one (steps C2/C3 of
// Figure 7): a cached key replaces the private-key decryption with a
// symmetric one and skips signature re-verification. The cached key is this
// enclave's own (local pre-verification) or the proposer enclave's
// (AdoptAttestation).
func (e *Engine) openForExecution(epoch uint64, env []byte, meta preMeta) (*chain.RawTx, []byte, error) {
	if len(meta.ktx) > 0 {
		t := e.sdm.ops.begin(opTxDecrypt)
		body, err := crypto.OpenEnvelopeWithKey(env, meta.ktx)
		t.end()
		if err == nil {
			// GCM authenticated the body under the cached key, so the full
			// open would recover exactly these bytes.
			raw, err := chain.DecodeRawTx(body)
			if err != nil {
				return nil, nil, err
			}
			if meta.attested {
				mOpenRelayed.Inc()
			} else {
				mOpenLocal.Inc()
			}
			return raw, meta.ktx, nil
		}
		if !meta.attested {
			// This enclave recovered the key from this very envelope.
			return nil, nil, err
		}
		// A relayed key that does not open the body withdraws the whole
		// entry, the vouched signature included: nothing a peer sent may fail
		// a transaction this replica can still judge for itself.
	}
	// Full path: the expensive private-key decryption plus verification.
	raw, ktx, _, err := e.openEnvelope(epoch, env)
	mOpenECDH.Inc()
	if err != nil {
		return nil, nil, err
	}
	return raw, ktx, e.checkSignature(raw)
}

// executeRaw runs the decoded transaction body and assembles the result.
func (e *Engine) executeRaw(tx *chain.Tx, raw *chain.RawTx, ktx []byte) (*ExecResult, error) {
	txc := e.newTxContext(tx.Type == chain.TxTypeConfidential)
	input := EncodeInput(raw.Method, raw.Args...)
	output, execErr := e.runContract(txc, raw.Contract, input, raw.From[:], 0)

	receipt := &chain.Receipt{
		TxHash:  tx.Hash(),
		From:    raw.From,
		To:      raw.Contract,
		GasUsed: txc.gasUsed,
		Output:  output,
		Logs:    txc.logs,
	}
	if execErr != nil {
		receipt.Status = chain.ReceiptFailed
		receipt.Output = []byte(execErr.Error())
		// Failed transactions must not mutate state.
		txc.writes = nil
		e.status("execution failed: " + execErr.Error())
	}

	stored := receipt.Encode()
	if txc.confidential {
		// Formula (2): Rpt_conf = Enc(k_tx, Rpt_raw). Only the transaction
		// owner (or a delegate holding k_tx) can read it.
		t := e.sdm.ops.begin(opReceiptSeal)
		sealed, err := crypto.SealAEAD(ktx, stored, receipt.TxHash[:])
		t.end()
		if err != nil {
			return nil, err
		}
		stored = sealed
	}

	return &ExecResult{
		Receipt:       receipt,
		StoredReceipt: stored,
		TxHash:        receipt.TxHash,
		ReadSet:       txc.readSet,
		WriteKeys:     txc.writeSetKeys(),
		appendWrites: func(batch *storage.Batch) error {
			for addr, w := range txc.writes {
				if err := e.sdm.sealWrites(addr, w.sealed, w.kv, batch); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// runContract loads and executes one contract frame (used for both the
// entry call and nested cross-contract calls).
func (e *Engine) runContract(txc *txContext, addr chain.Address, input []byte, caller []byte, depth int) ([]byte, error) {
	defer e.sdm.ops.begin(opContractCall).end()

	t := e.sdm.ops.begin(opCodeLoad)
	rec, code, err := e.sdm.loadContract(addr)
	t.end()
	if err != nil {
		return nil, err
	}
	// A transaction executes entirely within contracts of its own
	// confidentiality class. One direction is mandatory for secrecy (a
	// public transaction must not reach confidential code or state); the
	// other prevents a confidential flow from writing public state through
	// the confidential engine — both an information leak and a cache-
	// coherence hazard, since each class's state is owned by one engine.
	if rec.Confidential != txc.confidential {
		if rec.Confidential {
			return nil, errors.New("core: public transaction cannot call a confidential contract")
		}
		return nil, errors.New("core: confidential transaction cannot call a public contract")
	}

	frame := &frameEnv{
		tx:       txc,
		contract: addr,
		sealed:   txc.confidential && rec.Confidential,
		input:    input,
		caller:   append([]byte(nil), caller...),
		depth:    depth,
	}

	switch rec.VM {
	case VMCVM:
		prog, unit, err := e.loadProgram(code)
		if err != nil {
			return nil, err
		}
		cfg := cvm.Config{GasLimit: e.opts.GasLimit}
		var pooled []byte
		if e.opts.MemPool {
			if e.enclave != nil {
				if buf, perr := e.enclave.Pool().Get(8 * cvm.PageSize); perr == nil {
					pooled = buf[:cap(buf)]
				}
			} else if buf, ok := e.hostPool.Get().([]byte); ok {
				pooled = buf
			} else {
				pooled = make([]byte, 8*cvm.PageSize)
			}
			cfg.MemoryBuffer = pooled
		}
		var runErr error
		if unit != nil {
			var used uint64
			_, used, runErr = unit.Run(frame, cfg)
			txc.gasUsed += used
		} else {
			vm := cvm.NewVM(prog, frame, cfg)
			_, runErr = vm.Run()
			txc.gasUsed += vm.GasUsed()
		}
		if pooled != nil {
			if e.enclave != nil {
				e.enclave.Pool().Put(pooled)
			} else {
				e.hostPool.Put(pooled) //nolint:staticcheck // slice reuse
			}
		}
		if runErr != nil {
			return nil, runErr
		}

	case VMEVM:
		vm := evm.New(code, frame, evm.Config{GasLimit: e.opts.GasLimit})
		runErr := vm.Run()
		txc.gasUsed += vm.GasUsed()
		if runErr != nil {
			return nil, runErr
		}

	default:
		return nil, fmt.Errorf("core: unknown VM kind %d", rec.VM)
	}
	return frame.output, nil
}

// loadProgram turns contract code into what a frame runs: the compiled unit
// when the deploy-time compiler took the program, else the decoded program
// for the interpreter. Both come from the code cache (OPT1) when there is one;
// without it every frame decodes afresh.
func (e *Engine) loadProgram(code []byte) (*cvm.Program, *compile.Unit, error) {
	build := cvm.BuildOptions{Fuse: e.opts.Fuse}
	if e.codeCache == nil {
		prog, err := cvm.LoadProgram(code, build)
		return prog, nil, err
	}
	var artifact func(*cvm.Program) any
	if e.opts.Compile {
		artifact = compileArtifact
	}
	prog, art, err := e.codeCache.LoadWithArtifact(code, build, artifact)
	unit, compiled := art.(*compile.Unit)
	if art != nil && !compiled {
		// Decline tombstone: decided once per code hash, every later
		// invocation interprets without re-compiling.
		compile.RecordFallbackRun()
	}
	return prog, unit, err
}

// ReadReceipt fetches a stored receipt's bytes (sealed for confidential
// transactions).
func ReadReceipt(store storage.KVStore, txHash chain.Hash) ([]byte, bool, error) {
	return store.Get(ReceiptKey(txHash))
}
