package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"confide/internal/chain"
	"confide/internal/crypto"
	"confide/internal/cvm"
	"confide/internal/keyepoch"
	"confide/internal/storage"
	"confide/internal/tee"
)

// Storage key namespaces.
const (
	nsState   = "st/" // st/<addr-hex>/<raw key>  contract state
	nsCode    = "cd/" // cd/<addr-hex>            contract code record
	nsReceipt = "rc/" // rc/<txhash-hex>          receipts
)

func stateKey(addr chain.Address, key []byte) []byte {
	out := make([]byte, 0, len(nsState)+40+1+len(key))
	out = append(out, nsState...)
	out = hex.AppendEncode(out, addr[:])
	out = append(out, '/')
	return append(out, key...)
}

func codeKey(addr chain.Address) []byte {
	return []byte(nsCode + hex.EncodeToString(addr[:]))
}

// ReceiptKey is where a transaction's receipt lives in the KV store.
func ReceiptKey(txHash chain.Hash) []byte {
	return []byte(nsReceipt + hex.EncodeToString(txHash[:]))
}

// addrFromHex inverts the address segment codeKey and stateKey write.
func addrFromHex(b []byte) (addr chain.Address, ok bool) {
	if len(b) != hex.EncodedLen(len(addr)) {
		return addr, false
	}
	_, err := hex.Decode(addr[:], b)
	return addr, err == nil
}

// walkSealed is the one walk over the contract store, and the only place that
// parses cd/<addr-hex> and st/<addr-hex>/<raw key> back into an address. It
// calls code for every contract record, public ones included, then state for
// every state record of a confidential contract: a public contract's state is
// plaintext, and a key under st/ whose address segment names no contract is
// not the engine's and is skipped. key, rec and stored are valid only during
// the call; a visitor's error ends the walk.
func (s *SDM) walkSealed(
	code func(key []byte, addr chain.Address, rec *ContractRecord) error,
	state func(key []byte, addr chain.Address, stored []byte) error,
) error {
	sealed := make(map[string]chain.Address) // addr-hex → confidential contract
	var walkErr error
	err := s.store.Iterate([]byte(nsCode), func(key, value []byte) bool {
		hexAddr := key[len(nsCode):]
		rec, err := decodeRecord(value)
		addr, ok := addrFromHex(hexAddr)
		switch {
		case err != nil:
		case !ok:
			err = errors.New("core: contract key is not an address")
		default:
			if rec.Confidential {
				sealed[string(hexAddr)] = addr
			}
			err = code(key, addr, rec)
		}
		if err != nil {
			walkErr = fmt.Errorf("contract %s: %w", hexAddr, err)
		}
		return err == nil
	})
	if err != nil || walkErr != nil {
		return errors.Join(err, walkErr)
	}
	segment := len(nsState) + hex.EncodedLen(len(chain.Address{})) // "st/<addr-hex>"
	err = s.store.Iterate([]byte(nsState), func(key, stored []byte) bool {
		if len(key) <= segment {
			return true
		}
		hexAddr := key[len(nsState):segment]
		addr, ok := sealed[string(hexAddr)]
		if !ok {
			return true
		}
		if err := state(key, addr, stored); err != nil {
			walkErr = fmt.Errorf("state %s/%q: %w", hexAddr, key[segment+1:], err)
		}
		return walkErr == nil
	})
	return errors.Join(err, walkErr)
}

// SDM is the Secure Data Module: every interaction between the
// Confidential-Engine and the blockchain's KV store flows through it. It
// implements the D-Protocol (authenticated encryption under k_states: a
// state record is bound to its store key, a code record to the contract's
// identity, owner and security version) and keeps a memory cache for I/O
// efficiency. Crossing
// to the store from inside the enclave costs an ocall.
type SDM struct {
	store   storage.KVStore
	enclave *tee.Enclave   // nil in the public engine
	ring    *keyepoch.Ring // epoch-versioned k_states; nil in the public engine
	// ops is the owning engine's Table 1 profile (Engine.Profile): the SDM
	// performs three of its operations, and the engine and its contract
	// frames reach it here too.
	ops Profile

	mu    sync.Mutex
	cache map[string][]byte // decrypted-state read cache
	// pending holds the plaintext writes of the block being applied until
	// its batch lands (settle): later transactions in the block read them
	// first, and the read cache never holds a value the store lacks.
	pending map[string][]byte
}

// NewSDM builds the secure data module. enclave and ring are nil for the
// public engine (no boundary costs, no encryption).
func NewSDM(store storage.KVStore, enclave *tee.Enclave, ring *keyepoch.Ring) *SDM {
	return &SDM{
		store:   store,
		enclave: enclave,
		ring:    ring,
		cache:   make(map[string][]byte),
		pending: make(map[string][]byte),
	}
}

// openSealed unwraps an epoch-tagged sealed record: the tag routes the
// ciphertext to its epoch's k_states sub-key. A tampered tag reroutes to a
// different key and fails the AEAD check; a zeroized epoch's records are
// unreadable by design (they must be re-sealed before zeroization).
func (s *SDM) openSealed(stored []byte, aad []byte) ([]byte, error) {
	epoch, sealed, err := keyepoch.ParseRecord(stored)
	if err != nil {
		return nil, err
	}
	key, err := s.ring.StatesKey(epoch)
	if err != nil {
		return nil, err
	}
	return crypto.OpenAEAD(key, sealed, aad)
}

// sealRecord seals plaintext under the current epoch's k_states sub-key and
// prefixes the epoch tag.
func (s *SDM) sealRecord(value []byte, aad []byte) ([]byte, error) {
	epoch, key := s.ring.SealKey()
	sealed, err := crypto.SealAEAD(key, value, aad)
	if err != nil {
		return nil, err
	}
	return keyepoch.WrapRecord(epoch, sealed), nil
}

// fetch reads one stored value from inside the enclave: an ocall.
func (s *SDM) fetch(key []byte) (value []byte, found bool, err error) {
	err = s.enclave.Ocall(len(key), tee.CopyInOut, func() (err error) {
		value, found, err = s.store.Get(key)
		return err
	})
	return value, found, err
}

// load fetches and (for confidential contracts) decrypts the state value
// stored at sk = stateKey(addr, key), charging the enclave boundary. A state
// record's AAD is its store key sk, which binds the ciphertext to both its
// contract and its key: a host that moves it anywhere else fails the AEAD
// check. The security version is deliberately not part of it — it
// authenticates contract *code* (codeAAD), so upgrading a contract does not
// orphan its state.
func (s *SDM) load(sk []byte, confidential bool) ([]byte, bool, error) {
	s.mu.Lock()
	v, ok := s.pending[string(sk)]
	if !ok {
		v, ok = s.cache[string(sk)]
	}
	s.mu.Unlock()
	if ok {
		return append([]byte(nil), v...), v != nil, nil
	}
	value, found, err := s.fetch(sk)
	if err != nil {
		return nil, false, err
	}
	if found && confidential && s.ring != nil {
		t := s.ops.begin(opStateDecrypt)
		value, err = s.openSealed(value, sk)
		t.end()
		if err != nil {
			return nil, false, fmt.Errorf("core: state integrity violation for %q: %w", sk, err)
		}
	}
	// A nil entry remembers that the key is absent; a present value, even an
	// empty one, is cached non-nil.
	var cached []byte
	if found {
		cached = append([]byte{}, value...)
	}
	s.mu.Lock()
	s.cachePut(string(sk), cached)
	s.mu.Unlock()
	return value, found, nil
}

// cachePut fills a read-cache entry. Caller holds s.mu.
func (s *SDM) cachePut(key string, value []byte) {
	if _, had := s.cache[key]; !had {
		mSDMCacheEntries.Add(1)
	}
	s.cache[key] = value
}

// sealWrites encrypts a transaction's write set (for confidential
// contracts) and appends it to batch. The plaintext view joins the pending
// writes so later transactions in the same block see fresh state.
func (s *SDM) sealWrites(addr chain.Address, confidential bool, writes map[string][]byte, batch *storage.Batch) error {
	for key, value := range writes {
		sk := stateKey(addr, []byte(key))
		stored := value
		if confidential && s.ring != nil {
			t := s.ops.begin(opStateEncrypt)
			sealed, err := s.sealRecord(value, sk)
			t.end()
			if err != nil {
				return err
			}
			stored = sealed
		}
		// The sealed value leaves the enclave in one ocall.
		if err := s.enclave.Ocall(len(sk)+len(stored), tee.UserCheck, func() error { return nil }); err != nil {
			return err
		}
		batch.Put(sk, stored)
		s.mu.Lock()
		s.pending[string(sk)] = append([]byte{}, value...) // present, even if empty
		s.mu.Unlock()
	}
	return nil
}

// settle ends the block whose writes are pending. When its batch landed,
// a written key the read cache already holds takes its new value, and the
// rest are dropped: the store has them now, and a key written but never read
// costs no memory. A block that failed to execute or persist leaves nothing
// readable.
func (s *SDM) settle(landed bool) {
	s.mu.Lock()
	if landed {
		for k, v := range s.pending {
			if _, ok := s.cache[k]; ok {
				s.cache[k] = v
			}
		}
	}
	clear(s.pending)
	s.mu.Unlock()
}

// InvalidateCache drops the read cache and the pending writes (tests,
// reorgs).
func (s *SDM) InvalidateCache() {
	s.mu.Lock()
	mSDMCacheEntries.Add(-int64(len(s.cache)))
	s.cache = make(map[string][]byte)
	clear(s.pending)
	s.mu.Unlock()
}

// forget drops specific cache entries and pending writes. The re-seal sweep
// uses it for contract-code records, whose cache holds the raw stored bytes
// (unlike state entries, which cache plaintext) and would otherwise shadow
// the re-sealed ciphertext.
func (s *SDM) forget(keys ...[]byte) {
	s.mu.Lock()
	for _, k := range keys {
		if _, had := s.cache[string(k)]; had {
			mSDMCacheEntries.Add(-1)
			delete(s.cache, string(k))
		}
		delete(s.pending, string(k))
	}
	s.mu.Unlock()
}

// VMKind selects a contract's execution engine.
type VMKind uint8

// VM kinds.
const (
	VMCVM VMKind = 0
	VMEVM VMKind = 1
)

// ContractRecord is the stored form of a deployed contract.
type ContractRecord struct {
	VM           VMKind
	Confidential bool
	SecVer       uint64
	Code         []byte // encrypted when Confidential (D-Protocol)
	Owner        chain.Address
}

func codeAAD(addr chain.Address, owner chain.Address, secver uint64) []byte {
	return []byte(fmt.Sprintf("confide/code/%x/owner/%x/v%d", addr[:], owner[:], secver))
}

// encodeRecord serializes a contract record (code already sealed when
// confidential).
func encodeRecord(r *ContractRecord) []byte {
	conf := uint64(0)
	if r.Confidential {
		conf = 1
	}
	return chain.Encode(chain.List(
		chain.Uint(uint64(r.VM)),
		chain.Uint(conf),
		chain.Uint(r.SecVer),
		chain.Bytes(r.Owner[:]),
		chain.Bytes(r.Code),
	))
}

func decodeRecord(data []byte) (*ContractRecord, error) {
	it, err := chain.Decode(data)
	if err != nil || !it.IsList || len(it.List) != 5 {
		return nil, errors.New("core: malformed contract record")
	}
	var r ContractRecord
	vm, err := it.List[0].AsUint()
	if err != nil || vm > 1 {
		return nil, errors.New("core: bad vm kind")
	}
	r.VM = VMKind(vm)
	conf, err := it.List[1].AsUint()
	if err != nil {
		return nil, err
	}
	r.Confidential = conf == 1
	if r.SecVer, err = it.List[2].AsUint(); err != nil {
		return nil, err
	}
	if len(it.List[3].Str) != 20 {
		return nil, errors.New("core: bad owner address")
	}
	copy(r.Owner[:], it.List[3].Str)
	r.Code = it.List[4].Str
	return &r, nil
}

// loadContract fetches, authenticates and decodes a contract record,
// returning the plaintext code. Nothing decrypted is kept: every call opens
// the whole code again, recorded under the paper's Table 1 label "State
// Decryption" although it is code — on a warm SCF-AR transfer that row is
// these opens, one per frame, not the 151 state reads the read cache serves.
// runContract is the one caller per frame: a cache of opened code (ROADMAP
// item 5a) goes here.
func (s *SDM) loadContract(addr chain.Address) (*ContractRecord, []byte, error) {
	ck := codeKey(addr)
	s.mu.Lock()
	data, ok := s.cache[string(ck)]
	s.mu.Unlock()
	if !ok {
		var found bool
		var err error
		if data, found, err = s.fetch(ck); err != nil {
			return nil, nil, err
		}
		if !found {
			return nil, nil, fmt.Errorf("core: no contract at %s", addr)
		}
		s.mu.Lock()
		s.cachePut(string(ck), append([]byte(nil), data...))
		s.mu.Unlock()
	}
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, nil, err
	}
	code := rec.Code
	if rec.Confidential {
		if s.ring == nil {
			return nil, nil, errors.New("core: confidential contract requires the confidential engine")
		}
		t := s.ops.begin(opStateDecrypt)
		code, err = s.openSealed(rec.Code, codeAAD(addr, rec.Owner, rec.SecVer))
		t.end()
		if err != nil {
			return nil, nil, fmt.Errorf("core: contract code integrity violation: %w", err)
		}
	}
	return rec, code, nil
}

// storeContract seals (when confidential) and persists a contract record.
func (s *SDM) storeContract(addr chain.Address, rec *ContractRecord, plainCode []byte) error {
	stored := plainCode
	if rec.Confidential {
		if s.ring == nil {
			return errors.New("core: confidential deployment requires the confidential engine")
		}
		sealed, err := s.sealRecord(plainCode, codeAAD(addr, rec.Owner, rec.SecVer))
		if err != nil {
			return err
		}
		stored = sealed
	}
	out := *rec
	out.Code = stored
	if err := s.store.Put(codeKey(addr), encodeRecord(&out)); err != nil {
		return err
	}
	s.forget(codeKey(addr))
	return nil
}

// txContext is the per-transaction shared execution state: buffered writes,
// read tracking (for the parallel scheduler's conflict detection), logs and
// gas accounting — shared by every contract frame in the call tree.
type txContext struct {
	engine       *Engine
	readSet      map[string]struct{}
	writes       map[chain.Address]*contractWrites
	logs         []string
	gasUsed      uint64
	confidential bool
}

// contractWrites is one contract's buffered write set, with what write-back
// needs to know about the contract so that it never resolves it again.
type contractWrites struct {
	sealed bool // D-Protocol: the values are sealed under k_states at rest
	kv     map[string][]byte
}

// newTxContext starts a transaction of the given confidentiality class.
func (e *Engine) newTxContext(confidential bool) *txContext {
	return &txContext{
		engine:       e,
		readSet:      make(map[string]struct{}),
		writes:       make(map[chain.Address]*contractWrites),
		confidential: confidential,
	}
}

// frameEnv is one contract frame's view; it implements cvm.Env (and thus
// also the EVM's Env).
type frameEnv struct {
	tx       *txContext
	contract chain.Address
	sealed   bool // the contract's state is encrypted at rest (D-Protocol)
	input    []byte
	output   []byte
	caller   []byte
	depth    int
}

var _ cvm.Env = (*frameEnv)(nil)

// GetStorage implements cvm.Env: write-set first, then SDM (cache + store).
func (f *frameEnv) GetStorage(key []byte) ([]byte, bool, error) {
	defer f.tx.engine.sdm.ops.begin(opGetStorage).end()
	if w := f.tx.writes[f.contract]; w != nil {
		if v, ok := w.kv[string(key)]; ok {
			return append([]byte(nil), v...), v != nil, nil // nil: set to empty, which reads as absent
		}
	}
	sk := stateKey(f.contract, key)
	f.tx.readSet[string(sk)] = struct{}{}
	return f.tx.engine.sdm.load(sk, f.sealed)
}

// SetStorage implements cvm.Env: buffered until commit.
func (f *frameEnv) SetStorage(key, value []byte) error {
	defer f.tx.engine.sdm.ops.begin(opSetStorage).end()
	w := f.tx.writes[f.contract]
	if w == nil {
		w = &contractWrites{sealed: f.sealed, kv: make(map[string][]byte)}
		f.tx.writes[f.contract] = w
	}
	w.kv[string(key)] = append([]byte(nil), value...)
	return nil
}

// Input implements cvm.Env.
func (f *frameEnv) Input() []byte { return f.input }

// SetOutput implements cvm.Env.
func (f *frameEnv) SetOutput(out []byte) { f.output = out }

// Log implements cvm.Env.
func (f *frameEnv) Log(msg string) { f.tx.logs = append(f.tx.logs, msg) }

// Caller implements cvm.Env.
func (f *frameEnv) Caller() []byte { return f.caller }

// CallContract implements cvm.Env: synchronous nested execution of another
// contract in the same transaction context.
func (f *frameEnv) CallContract(addr []byte, input []byte) ([]byte, error) {
	if f.depth >= 32 {
		return nil, errors.New("core: cross-contract call depth exceeded")
	}
	var target chain.Address
	copy(target[:], addr)
	return f.tx.engine.runContract(f.tx, target, input, f.contract[:], f.depth+1)
}

// writeSetKeys flattens a transaction's touched state keys (for the
// parallel scheduler).
func (tx *txContext) writeSetKeys() map[string]struct{} {
	out := make(map[string]struct{})
	for addr, w := range tx.writes {
		for k := range w.kv {
			out[string(stateKey(addr, []byte(k)))] = struct{}{}
		}
	}
	return out
}
