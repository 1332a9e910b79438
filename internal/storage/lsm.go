package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"confide/internal/storage/vfs"
)

// LSMStore is a log-structured merge KV store: writes land in a WAL and an
// in-memory memtable; full memtables flush to immutable sorted SSTables;
// reads consult the memtable then tables newest-first through bloom filters;
// compaction folds tables together and drops shadowed versions and
// tombstones. It is the durable KVStore implementation of the platform.
//
// Failure semantics are fail-stop: the first unrecoverable filesystem error
// (a failed or crashed fsync, a write error mid-WAL-record, a read that
// stays corrupt after retries) poisons the store — every later mutation
// returns ErrStoreFailed. Acknowledging a commit whose durability is
// unknown, or executing on state that reads back wrong, are both worse than
// dying; the node layer treats a poisoned store as node-fatal and restarts
// into recovery.
type LSMStore struct {
	mu   sync.RWMutex
	dir  string
	fsys vfs.FS

	mem     map[string]memEntry
	memSize int
	log     *wal
	tables  []*sstable // oldest first
	nextID  uint64
	closed  bool

	failMu sync.Mutex
	failed error // sticky first unrecoverable error

	opts LSMOptions
}

type memEntry struct {
	value     []byte
	tombstone bool
}

// LSMOptions tunes the store.
type LSMOptions struct {
	// MemtableBytes triggers a flush when the memtable exceeds it.
	// Default 4 MiB.
	MemtableBytes int
	// FS is the filesystem seam; nil means the real OS filesystem. Fault
	// and crash tests substitute faultfs here.
	FS vfs.FS
	// Crash is the crash-point registry for this store's process; nil (the
	// default) disables crash points.
	Crash *vfs.CrashPoints
	// VerifyOnOpen fully scans every sstable at open, verifying entry
	// checksums. Used on crash-recovery reopen, where fsync lies may have
	// published tables whose data never hit the platter.
	VerifyOnOpen bool
}

func (o *LSMOptions) withDefaults() LSMOptions {
	out := *o
	if out.MemtableBytes == 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.FS == nil {
		out.FS = vfs.Default()
	}
	return out
}

// ErrStoreFailed is wrapped by every operation after the store hit an
// unrecoverable filesystem error: the store is poisoned and must be closed,
// recovered (reopened over whatever is durable), or quarantined.
var ErrStoreFailed = errors.New("storage: store failed")

// ErrCorrupt is wrapped by OpenLSM when on-disk state is corrupted beyond
// the WAL's torn-tail tolerance (bad sstable checksums, truncated tables).
// Callers with a replication layer should quarantine the directory and
// rebuild from a snapshot rather than fail boot permanently.
var ErrCorrupt = errors.New("storage: corrupt store")

// maxTables is the table count past which a memtable flush triggers a full
// compaction.
const maxTables = 8

// readRetries is how many times a failed sstable read is retried before the
// store is declared failed. Transient controller errors (and faultfs's
// injected EIO/bit-flips) usually clear on retry; persistent corruption
// must not be masked, so after the budget the error is sticky.
const readRetries = 3

// OpenLSM opens (or creates) an LSM store in dir, replaying any WAL left by
// a previous process. Unpublished temp tables from an interrupted flush are
// discarded; their contents are still in the WAL.
func OpenLSM(dir string, opts LSMOptions) (*LSMStore, error) {
	o := opts.withDefaults()
	fsys := o.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	s := &LSMStore{
		dir:  dir,
		fsys: fsys,
		mem:  make(map[string]memEntry),
		opts: o,
	}
	// Clear half-published tables from a crash mid-flush: anything still
	// under a .tmp name was never linked into the store.
	if tmps, err := fsys.Glob(filepath.Join(dir, "*.sst"+sstTmpSuffix)); err == nil {
		for _, tmp := range tmps {
			fsys.Remove(tmp)
		}
	}
	// Open existing tables in creation order.
	names, err := fsys.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		t, err := openSSTable(fsys, name)
		if err != nil {
			s.closeTables()
			return nil, fmt.Errorf("storage: %s: %w (%w)", name, err, ErrCorrupt)
		}
		if o.VerifyOnOpen {
			if verr := t.verify(); verr != nil {
				t.release()
				s.closeTables()
				return nil, fmt.Errorf("storage: %s: verify: %w (%w)", name, verr, ErrCorrupt)
			}
		}
		s.tables = append(s.tables, t)
		var id uint64
		fmt.Sscanf(filepath.Base(name), "%012d.sst", &id)
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	// Replay WAL into the memtable.
	if err := replayWAL(fsys, s.walPath(), func(key, value []byte, tombstone bool) {
		s.memInsert(key, value, tombstone)
	}); err != nil {
		s.closeTables()
		return nil, err
	}
	s.log, err = openWAL(fsys, s.walPath(), o.Crash)
	if err != nil {
		s.closeTables()
		return nil, err
	}
	return s, nil
}

func (s *LSMStore) closeTables() {
	for _, t := range s.tables {
		t.release()
	}
	s.tables = nil
}

func (s *LSMStore) walPath() string { return filepath.Join(s.dir, "wal.log") }

// fail records the store's first unrecoverable error; all later mutations
// return it wrapped in ErrStoreFailed.
func (s *LSMStore) fail(err error) error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.failed == nil {
		s.failed = err
		mStoreFailures.Inc()
	}
	return fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
}

// Failed returns the sticky error, or nil while the store is healthy.
func (s *LSMStore) Failed() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failed
}

func (s *LSMStore) memInsert(key, value []byte, tombstone bool) {
	k := string(key)
	if old, ok := s.mem[k]; ok {
		s.memSize -= len(k) + len(old.value)
	}
	s.mem[k] = memEntry{value: append([]byte(nil), value...), tombstone: tombstone}
	s.memSize += len(k) + len(value)
}

// Get implements KVStore. Failed table reads are retried a few times
// (transient EIO, checksum-detected transfer corruption); a read that stays
// bad poisons the store rather than letting execution diverge on wrong
// state.
func (s *LSMStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if e, ok := s.mem[string(key)]; ok {
		if e.tombstone {
			return nil, false, nil
		}
		return append([]byte(nil), e.value...), true, nil
	}
	for i := len(s.tables) - 1; i >= 0; i-- {
		v, found, tomb, err := s.tables[i].get(key)
		for attempt := 0; err != nil && attempt < readRetries; attempt++ {
			mReadRetries.Inc()
			v, found, tomb, err = s.tables[i].get(key)
		}
		if err != nil {
			return nil, false, s.fail(err)
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// Put implements KVStore.
func (s *LSMStore) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return s.WriteBatch(&b)
}

// Delete implements KVStore.
func (s *LSMStore) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return s.WriteBatch(&b)
}

// WriteBatch implements KVStore; this is the block-commit path. It returns
// only once the whole batch is in the WAL and the WAL is fsynced: one sync
// per batch, however many records it holds.
func (s *LSMStore) WriteBatch(b *Batch) error {
	mBatchWrites.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.Failed(); err != nil {
		return fmt.Errorf("%w: %w", ErrStoreFailed, err)
	}
	for _, op := range b.ops {
		if err := s.log.append(op.key, op.value, op.delete); err != nil {
			return s.fail(err)
		}
	}
	// Seal the batch: replay applies it all-or-nothing, so a torn tail can
	// never expose half a block commit.
	if err := s.log.appendCommit(); err != nil {
		return s.fail(err)
	}
	if err := s.log.flush(); err != nil {
		// The WAL's durability is now unknown; acknowledging this commit —
		// or any later one — would be a silent lie. Sticky-fail the store.
		return s.fail(err)
	}
	for _, op := range b.ops {
		s.memInsert(op.key, op.value, op.delete)
	}
	if s.memSize >= s.opts.MemtableBytes {
		if err := s.flushLocked(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// Flush forces the memtable to an SSTable (exposed for tests and shutdown).
func (s *LSMStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return s.fail(err)
	}
	return nil
}

func (s *LSMStore) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	if err := s.opts.Crash.Hit(vfs.CrashMemtableFlush); err != nil {
		return err
	}
	mMemtableFlush.Inc()
	entries := make([]sstEntry, 0, len(s.mem))
	for k, e := range s.mem {
		entries = append(entries, sstEntry{key: []byte(k), value: e.value, tombstone: e.tombstone})
	}
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].key) < string(entries[j].key)
	})
	path := filepath.Join(s.dir, fmt.Sprintf("%012d.sst", s.nextID))
	s.nextID++
	if err := writeSSTable(s.fsys, s.opts.Crash, path, entries); err != nil {
		return err
	}
	t, err := openSSTable(s.fsys, path)
	if err != nil {
		return err
	}
	s.tables = append(s.tables, t)
	s.mem = make(map[string]memEntry)
	s.memSize = 0
	// Truncate the WAL: everything is durable in the table now. The removal
	// is made durable by openWAL's directory sync when the fresh log is
	// created; a crash in between replays a WAL whose records are already
	// in the published table — idempotent.
	if err := s.log.close(); err != nil {
		return err
	}
	if err := s.fsys.Remove(s.walPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	s.log, err = openWAL(s.fsys, s.walPath(), s.opts.Crash)
	if err != nil {
		return err
	}
	if len(s.tables) > maxTables {
		return s.compactLocked()
	}
	return nil
}

// Compact merges every SSTable into one, dropping shadowed versions and
// tombstones.
func (s *LSMStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.compactLocked(); err != nil {
		return s.fail(err)
	}
	return nil
}

func (s *LSMStore) compactLocked() error {
	if len(s.tables) <= 1 {
		return nil
	}
	start := time.Now()
	defer func() {
		mCompactions.Inc()
		mCompactSeconds.ObserveSince(start)
	}()
	// Oldest-to-newest apply; newest wins. Tombstones drop out entirely
	// because the merged table is the full history.
	merged := make(map[string]memEntry)
	for _, t := range s.tables {
		err := t.scan(func(k, v []byte, tomb bool) bool {
			if tomb {
				delete(merged, string(k))
			} else {
				merged[string(k)] = memEntry{value: append([]byte(nil), v...)}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	entries := make([]sstEntry, 0, len(merged))
	for k, e := range merged {
		entries = append(entries, sstEntry{key: []byte(k), value: e.value})
	}
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].key) < string(entries[j].key)
	})
	path := filepath.Join(s.dir, fmt.Sprintf("%012d.sst", s.nextID))
	s.nextID++
	if err := writeSSTable(s.fsys, s.opts.Crash, path, entries); err != nil {
		return err
	}
	t, err := openSSTable(s.fsys, path)
	if err != nil {
		return err
	}
	old := s.tables
	s.tables = []*sstable{t}
	for _, ot := range old {
		// Doom rather than delete: in-flight streaming iterators still hold
		// references; the file goes away when the last one releases it.
		ot.drop()
	}
	return nil
}

// Iterate implements KVStore with a streaming k-way merge: each SSTable is
// cursored in place (seeked to the prefix through its sparse index) and only
// the in-prefix slice of the memtable is copied, so memory stays bounded by
// the memtable size regardless of how much state the scan covers — snapshot
// export over the full store no longer spikes RSS.
//
// The merge runs without the store lock (tables are immutable and
// refcounted; a concurrent compaction dooms them but the files survive until
// this scan releases them), so fn observes the store as of the moment
// Iterate was called and may itself call back into the store.
func (s *LSMStore) Iterate(prefix []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	// Snapshot the (bounded) memtable's in-prefix entries; sstEntry reuses
	// the stored value slices, which memInsert never mutates in place.
	memEntries := make([]sstEntry, 0, len(s.mem))
	for k, e := range s.mem {
		if hasPrefix([]byte(k), prefix) {
			memEntries = append(memEntries, sstEntry{key: []byte(k), value: e.value, tombstone: e.tombstone})
		}
	}
	tables := make([]*sstable, len(s.tables))
	copy(tables, s.tables)
	for _, t := range tables {
		t.retain()
	}
	s.mu.RUnlock()
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()

	sort.Slice(memEntries, func(i, j int) bool {
		return string(memEntries[i].key) < string(memEntries[j].key)
	})

	// Merge sources in shadowing priority order: memtable first, then
	// tables newest → oldest. On equal keys the earliest source wins.
	srcs := make([]kvSource, 0, len(tables)+1)
	srcs = append(srcs, &sliceSource{entries: memEntries})
	for i := len(tables) - 1; i >= 0; i-- {
		srcs = append(srcs, tables[i].iterator(prefix))
	}
	return mergeIterate(srcs, fn)
}

// kvSource is one ordered input to the merge: a memtable snapshot or an
// SSTable cursor.
type kvSource interface {
	next() bool
	entry() (key, value []byte, tombstone bool)
	error() error
}

// sliceSource adapts a sorted in-memory entry slice to kvSource.
type sliceSource struct {
	entries []sstEntry
	pos     int // 1-based: entries[pos-1] is current after next()
}

func (s *sliceSource) next() bool {
	if s.pos >= len(s.entries) {
		s.pos = len(s.entries) + 1
		return false
	}
	s.pos++
	return true
}

func (s *sliceSource) entry() (key, value []byte, tombstone bool) {
	e := s.entries[s.pos-1]
	return e.key, e.value, e.tombstone
}

func (s *sliceSource) error() error { return nil }

// mergeIterate streams the union of the sources in ascending key order,
// resolving duplicate keys in favour of the earliest (highest-priority)
// source and suppressing tombstoned keys. Source counts are small (memtable
// + at most maxTables SSTables), so a linear min-scan per step beats heap
// bookkeeping.
func mergeIterate(srcs []kvSource, fn func(key, value []byte) bool) error {
	live := make([]bool, len(srcs))
	for i, src := range srcs {
		live[i] = src.next()
		if err := src.error(); err != nil {
			return err
		}
	}
	for {
		best := -1
		var bestKey []byte
		for i, src := range srcs {
			if !live[i] {
				continue
			}
			k, _, _ := src.entry()
			if best == -1 || bytes.Compare(k, bestKey) < 0 {
				best, bestKey = i, k
			}
		}
		if best == -1 {
			return nil
		}
		_, value, tomb := srcs[best].entry()
		// Advance every source sitting on this key: shadowed versions are
		// consumed alongside the winner.
		for i, src := range srcs {
			if !live[i] {
				continue
			}
			if k, _, _ := src.entry(); bytes.Equal(k, bestKey) {
				live[i] = src.next()
				if err := src.error(); err != nil {
					return err
				}
			}
		}
		if !tomb {
			if !fn(bestKey, value) {
				return nil
			}
		}
	}
}

// TableCount reports the number of live SSTables (for tests/metrics).
func (s *LSMStore) TableCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Close releases the store. It has nothing to flush: every acknowledged
// batch is already synced, and the memtable replays from the WAL.
func (s *LSMStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if err := s.log.close(); err != nil {
		firstErr = err
	}
	for _, t := range s.tables {
		// Drop the store's reference; an in-flight Iterate keeps its tables
		// open until it finishes.
		if err := t.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Interface conformance checks.
var (
	_ KVStore = (*MemStore)(nil)
	_ KVStore = (*LSMStore)(nil)
)
