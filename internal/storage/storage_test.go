package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"confide/internal/storage/vfs"
)

// storeFactories builds each KVStore implementation fresh for a subtest.
var storeFactories = map[string]func(t *testing.T) KVStore{
	"mem": func(t *testing.T) KVStore { return NewMemStore() },
	"lsm": func(t *testing.T) KVStore {
		s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	},
}

func TestKVStoreBasics(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			if _, found, err := s.Get([]byte("missing")); err != nil || found {
				t.Fatalf("missing key: found=%v err=%v", found, err)
			}
			if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, found, err := s.Get([]byte("k1"))
			if err != nil || !found || string(v) != "v1" {
				t.Fatalf("get k1 = %q/%v/%v", v, found, err)
			}
			// Overwrite.
			if err := s.Put([]byte("k1"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get([]byte("k1"))
			if string(v) != "v2" {
				t.Fatalf("after overwrite got %q", v)
			}
			// Delete.
			if err := s.Delete([]byte("k1")); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.Get([]byte("k1")); found {
				t.Fatal("deleted key still found")
			}
			// Deleting a missing key is fine.
			if err := s.Delete([]byte("never")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKVStoreBatchAtomicVisibility(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			s.Put([]byte("a"), []byte("old"))
			var b Batch
			b.Put([]byte("a"), []byte("new"))
			b.Put([]byte("b"), []byte("2"))
			b.Delete([]byte("c"))
			if b.Len() != 3 {
				t.Fatalf("batch len = %d", b.Len())
			}
			if err := s.WriteBatch(&b); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := s.Get([]byte("a")); string(v) != "new" {
				t.Errorf("a = %q", v)
			}
			if v, _, _ := s.Get([]byte("b")); string(v) != "2" {
				t.Errorf("b = %q", v)
			}
			b.Reset()
			if b.Len() != 0 {
				t.Error("reset did not clear batch")
			}
		})
	}
}

func TestKVStoreIterateOrderAndPrefix(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			for _, k := range []string{"b/2", "a/1", "b/1", "c/1", "b/3"} {
				s.Put([]byte(k), []byte("v:"+k))
			}
			var got []string
			s.Iterate([]byte("b/"), func(k, v []byte) bool {
				if string(v) != "v:"+string(k) {
					t.Errorf("value mismatch for %s: %s", k, v)
				}
				got = append(got, string(k))
				return true
			})
			want := []string{"b/1", "b/2", "b/3"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("iterate = %v, want %v", got, want)
			}
			// Early stop.
			count := 0
			s.Iterate(nil, func(k, v []byte) bool {
				count++
				return count < 2
			})
			if count != 2 {
				t.Errorf("early-stop visited %d, want 2", count)
			}
		})
	}
}

func TestKVStoreClosedErrors(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			s.Close()
			if err := s.Put([]byte("k"), []byte("v")); err != ErrClosed {
				t.Errorf("put after close: %v", err)
			}
			if _, _, err := s.Get([]byte("k")); err != ErrClosed {
				t.Errorf("get after close: %v", err)
			}
		})
	}
}

func TestLSMFlushAndReadBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("tables = %d, want 1", s.TableCount())
	}
	// Reads now come from the SSTable.
	for _, i := range []int{0, 1, 250, 499} {
		v, found, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d: %q/%v/%v", i, v, found, err)
		}
	}
	if _, found, _ := s.Get([]byte("key-9999")); found {
		t.Error("phantom key found in sstable")
	}
	s.Close()
}

func TestLSMTombstoneShadowsOlderTable(t *testing.T) {
	s, _ := OpenLSM(t.TempDir(), LSMOptions{})
	defer s.Close()
	s.Put([]byte("ghost"), []byte("alive"))
	s.Flush()
	s.Delete([]byte("ghost"))
	s.Flush()
	if _, found, _ := s.Get([]byte("ghost")); found {
		t.Error("tombstone in newer table failed to shadow older value")
	}
	// And iteration must not resurrect it.
	s.Iterate(nil, func(k, v []byte) bool {
		if string(k) == "ghost" {
			t.Error("iterate resurrected deleted key")
		}
		return true
	})
}

func TestLSMRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenLSM(dir, LSMOptions{})
	s.Put([]byte("durable"), []byte("yes"))
	s.Delete([]byte("gone"))
	// Simulate a crash: close without flushing the memtable to a table.
	s.Close()

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, found, _ := s2.Get([]byte("durable"))
	if !found || string(v) != "yes" {
		t.Fatalf("after WAL replay: %q/%v", v, found)
	}
	if _, found, _ := s2.Get([]byte("gone")); found {
		t.Error("tombstone lost in WAL replay")
	}
}

func TestLSMRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenLSM(dir, LSMOptions{})
	s.Put([]byte("good"), []byte("record"))
	s.Close()
	// Corrupt the WAL tail: append garbage simulating a torn write.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("torn tail should not prevent open: %v", err)
	}
	defer s2.Close()
	if v, found, _ := s2.Get([]byte("good")); !found || string(v) != "record" {
		t.Errorf("good record lost: %q/%v", v, found)
	}
}

func TestLSMReopenWithTables(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenLSM(dir, LSMOptions{})
	s.Put([]byte("t1"), []byte("1"))
	s.Flush()
	s.Put([]byte("t2"), []byte("2"))
	s.Flush()
	s.Put([]byte("t1"), []byte("updated"))
	s.Flush()
	s.Close()

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _, _ := s2.Get([]byte("t1")); string(v) != "updated" {
		t.Errorf("newest table must win: got %q", v)
	}
	if v, _, _ := s2.Get([]byte("t2")); string(v) != "2" {
		t.Errorf("t2 = %q", v)
	}
}

func TestLSMCompaction(t *testing.T) {
	s, _ := OpenLSM(t.TempDir(), LSMOptions{})
	defer s.Close()
	for round := 0; round < 4; round++ {
		for i := 0; i < 50; i++ {
			s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("r%d", round)))
		}
		s.Flush()
	}
	s.Delete([]byte("k00"))
	s.Flush()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("tables after compact = %d, want 1", s.TableCount())
	}
	if _, found, _ := s.Get([]byte("k00")); found {
		t.Error("deleted key resurrected by compaction")
	}
	if v, _, _ := s.Get([]byte("k01")); string(v) != "r3" {
		t.Errorf("k01 = %q, want last round's value", v)
	}
	// Compaction keeps exactly the live keys.
	count := 0
	s.Iterate(nil, func(k, v []byte) bool { count++; return true })
	if count != 49 {
		t.Errorf("live keys = %d, want 49", count)
	}
}

func TestLSMAutoFlushAndAutoCompact(t *testing.T) {
	s, _ := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 10})
	defer s.Close()
	flushes, compactions := mMemtableFlush.Value(), mCompactions.Value()
	val := bytes.Repeat([]byte{0xab}, 128)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := mMemtableFlush.Value() - flushes; got <= 2*maxTables {
		t.Fatalf("%d memtable flushes, want more than %d to cross the table bound twice", got, 2*maxTables)
	}
	if mCompactions.Value() == compactions {
		t.Error("no auto-compaction")
	}
	if s.TableCount() > maxTables {
		t.Errorf("auto-compaction did not bound tables: %d", s.TableCount())
	}
	for _, i := range []int{0, 100, 199} {
		if _, found, _ := s.Get([]byte(fmt.Sprintf("key-%04d", i))); !found {
			t.Errorf("key %d lost across flush/compact", i)
		}
	}
}

// TestWriteBatchSyncsOnce pins the durable store's cost: every WriteBatch
// — a one-record Put or Delete, or a block-sized batch — fsyncs the WAL
// exactly once before it returns, and the sync is timed once.
func TestWriteBatchSyncsOnce(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writes := []func() error{
		func() error { return s.Put([]byte("k"), []byte("v")) },
		func() error { return s.Delete([]byte("k")) },
	}
	for _, records := range []int{1, 64, 1000} {
		writes = append(writes, func() error {
			var b Batch
			for i := 0; i < records; i++ {
				b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
			}
			return s.WriteBatch(&b)
		})
	}
	for i, write := range writes {
		syncs, timed := mWALSyncs.Value(), mWALSyncSeconds.Count()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if got := mWALSyncs.Value() - syncs; got != 1 {
			t.Errorf("write %d: %d WAL syncs, want 1", i, got)
		}
		if got := mWALSyncSeconds.Count() - timed; got != 1 {
			t.Errorf("write %d: %d sync-time observations, want 1", i, got)
		}
	}
}

func TestLSMMatchesMemStoreProperty(t *testing.T) {
	// Model-based test: random op sequences must leave LSM and MemStore
	// with identical contents.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lsm, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 512})
		if err != nil {
			return false
		}
		defer lsm.Close()
		mem := NewMemStore()
		keys := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 200; i++ {
			k := []byte(keys[rng.Intn(len(keys))])
			switch rng.Intn(3) {
			case 0, 1:
				v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
				lsm.Put(k, v)
				mem.Put(k, v)
			case 2:
				lsm.Delete(k)
				mem.Delete(k)
			}
		}
		for _, k := range keys {
			lv, lf, _ := lsm.Get([]byte(k))
			mv, mf, _ := mem.Get([]byte(k))
			if lf != mf || !bytes.Equal(lv, mv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreWriteLatencyInjection(t *testing.T) {
	s := NewMemStore()
	s.SetWriteLatency(5 * time.Millisecond)
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	start := time.Now()
	s.WriteBatch(&b)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("write latency not injected: %v", elapsed)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("present-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("present-%d", i))) {
			t.Fatalf("false negative for present-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if fp > 100 {
		t.Errorf("false positive rate too high: %d/1000", fp)
	}
	// Round trip through marshalling.
	b2 := unmarshalBloom(b.marshal())
	if b2 == nil {
		t.Fatal("unmarshal failed")
	}
	if !b2.mayContain([]byte("present-0")) {
		t.Error("marshalled filter lost membership")
	}
	if unmarshalBloom([]byte{1, 2, 3}) != nil {
		t.Error("garbage bloom should not unmarshal")
	}
}

func TestSSTableLargeValuesAcrossIndexBlocks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.sst")
	var entries []sstEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, sstEntry{
			key:   []byte(fmt.Sprintf("key-%03d", i)),
			value: bytes.Repeat([]byte{byte(i)}, 3000),
		})
	}
	if err := writeSSTable(vfs.Default(), nil, path, entries); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(vfs.Default(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.close()
	for _, i := range []int{0, 15, 16, 17, 63, 99} {
		v, found, _, err := tab.get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", i, found, err)
		}
		if len(v) != 3000 || v[0] != byte(i) {
			t.Fatalf("key %d: bad value", i)
		}
	}
	// Keys between index blocks but absent.
	if _, found, _, _ := tab.get([]byte("key-015x")); found {
		t.Error("phantom key between entries")
	}
}
