package storage

import "confide/internal/metrics"

// Process-wide storage counters: write path (WAL, memtable), background
// maintenance (flushes, compactions) and the bloom filter's read-path
// effectiveness.
var (
	mBatchWrites    = metrics.Default().Counter("confide_storage_batch_writes_total", "write batches applied (WAL + memtable)")
	mWALAppends     = metrics.Default().Counter("confide_storage_wal_appends_total", "records appended to the write-ahead log")
	mWALSyncs       = metrics.Default().Counter("confide_storage_wal_syncs_total", "WAL fsync calls, one per write batch")
	mMemtableFlush  = metrics.Default().Counter("confide_storage_memtable_flushes_total", "memtable to SSTable flushes")
	mCompactions    = metrics.Default().Counter("confide_storage_compactions_total", "SSTable compaction passes")
	mBloomChecks    = metrics.Default().Counter("confide_storage_bloom_checks_total", "SSTable reads consulting a bloom filter")
	mBloomSkips     = metrics.Default().Counter("confide_storage_bloom_skips_total", "SSTable reads skipped by a bloom filter (definite miss)")
	mBloomFalsePos  = metrics.Default().Counter("confide_storage_bloom_false_positives_total", "bloom filter passes where the table did not hold the key")
	mWALSyncSeconds = metrics.Default().Histogram("confide_storage_wal_sync_seconds", "wall time per WAL fsync", nil)
	mCompactSeconds = metrics.Default().Histogram("confide_storage_compaction_seconds", "wall time per compaction pass", nil)
	mReadRetries    = metrics.Default().Counter("confide_storage_read_retries_total", "sstable reads retried after a transient error or checksum mismatch")
	mStoreFailures  = metrics.Default().Counter("confide_storage_sticky_failures_total", "stores poisoned by an unrecoverable filesystem error (fail-stop)")
)
