package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"confide/internal/storage/vfs"
)

// wal is the LSM store's write-ahead log. Every batch is appended and
// fsynced before it is applied to the memtable and before WriteBatch
// returns, so with an honest fsync a crash can lose no acknowledged write.
// Record layout:
//
//	crc32(le, over rest) | flags(1) | keyLen(varint) | valLen(varint) | key | val
//
// flags bit 0 marks a tombstone; bit 1 marks a batch-commit record (empty
// key/val) sealing every record appended since the previous commit. Replay
// applies only sealed batches, so a torn tail can never surface half of an
// atomic WriteBatch.
type wal struct {
	f     vfs.File
	w     *bufio.Writer
	crash *vfs.CrashPoints
}

const (
	walTombstone = 0x1
	walCommit    = 0x2
)

// openWAL opens (or creates) the log at path and fsyncs the parent
// directory, so the file's existence survives a crash that follows
// immediately — a freshly created-but-unlinked WAL would otherwise silently
// lose the first synced batch.
func openWAL(fsys vfs.FS, path string, crash *vfs.CrashPoints) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sync wal dir: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), crash: crash}, nil
}

func (w *wal) append(key, value []byte, tombstone bool) error {
	var flags byte
	if tombstone {
		flags |= walTombstone
	}
	if err := w.appendRecord(flags, key, value); err != nil {
		return err
	}
	mWALAppends.Inc()
	return nil
}

// appendCommit seals the records appended since the last commit marker;
// replay discards anything after the final marker.
func (w *wal) appendCommit() error {
	return w.appendRecord(walCommit, nil, nil)
}

func (w *wal) appendRecord(flags byte, key, value []byte) error {
	var hdr [1 + 2*binary.MaxVarintLen32]byte
	hdr[0] = flags
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))

	crc := crc32.NewIEEE()
	crc.Write(hdr[:n])
	crc.Write(key)
	crc.Write(value)

	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	for _, part := range [][]byte{crcBuf[:], hdr[:n], key, value} {
		if _, err := w.w.Write(part); err != nil {
			return fmt.Errorf("storage: wal append: %w", err)
		}
	}
	return nil
}

// flush writes the buffered records out and fsyncs the log: the one sync
// of a WriteBatch, however many records the batch holds.
func (w *wal) flush() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.crash.Hit(vfs.CrashWALAppend); err != nil {
		return err
	}
	mWALSyncs.Inc()
	start := time.Now()
	err := w.f.Sync()
	mWALSyncSeconds.ObserveSince(start)
	return err
}

// close releases the log file. It writes nothing: every acknowledged batch
// was flushed and synced by its WriteBatch, and whatever a failed one left
// in the buffer was never sealed, so replay would discard it anyway.
func (w *wal) close() error {
	return w.f.Close()
}

// replayWAL streams sealed batches from a WAL file into fn. Records after
// the last batch-commit marker — and any truncated or corrupted tail — are
// discarded (torn final write after a crash); corruption is never applied.
func replayWAL(fsys vfs.FS, path string, fn func(key, value []byte, tombstone bool)) error {
	f, err := vfs.Open(fsys, path)
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	type walRec struct {
		key, value []byte
		tombstone  bool
	}
	var pending []walRec
	for {
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil // EOF or torn tail: unsealed records stay discarded
		}
		flags, err := r.ReadByte()
		if err != nil {
			return nil
		}
		keyLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil
		}
		valLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil
		}
		if keyLen > 1<<28 || valLen > 1<<28 {
			return errors.New("storage: wal record size out of range")
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(r, key); err != nil {
			return nil
		}
		value := make([]byte, valLen)
		if _, err := io.ReadFull(r, value); err != nil {
			return nil
		}
		crc := crc32.NewIEEE()
		var hdr [1 + 2*binary.MaxVarintLen32]byte
		hdr[0] = flags
		n := 1
		n += binary.PutUvarint(hdr[n:], keyLen)
		n += binary.PutUvarint(hdr[n:], valLen)
		crc.Write(hdr[:n])
		crc.Write(key)
		crc.Write(value)
		if crc.Sum32() != binary.LittleEndian.Uint32(crcBuf[:]) {
			return nil // corrupted tail: stop replay at last sealed batch
		}
		if flags&walCommit != 0 {
			for _, rec := range pending {
				fn(rec.key, rec.value, rec.tombstone)
			}
			pending = pending[:0]
			continue
		}
		pending = append(pending, walRec{key: key, value: value, tombstone: flags&walTombstone != 0})
	}
}
