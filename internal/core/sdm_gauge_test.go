package core_test

import (
	"math/rand"
	"testing"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/kms"
	"confide/internal/metrics"
	"confide/internal/storage"
	"confide/internal/tee"
	"confide/internal/workload"
)

// TestSDMCacheGaugeTracksReadSet: 1 000 ABS transfers, each storing its asset
// body under a fresh asset id it never reads, leave the read-cache gauge
// within a constant of the keys the transfers read (the whitelist and the
// pools' counters). The bodies go to the store, not to memory.
func TestSDMCacheGaugeTracksReadSet(t *testing.T) {
	root, err := tee.NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	secrets, err := kms.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMemStore()
	engine, err := core.NewConfidentialEngine(tee.NewPlatform(root), secrets, store, tee.Config{}, core.AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	abs := chain.AddressFromBytes([]byte("abs"))
	code, err := workload.CompileCVM(workload.ABSTransferFlatSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.DeployContract(abs, chain.AddressFromBytes([]byte("owner")), core.VMCVM, code, true, 1); err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(engine.EnvelopePublicKey())
	if err != nil {
		t.Fatal(err)
	}

	entries := func() int64 { return metrics.Default().Snapshot().Gauges["confide_core_sdm_cache_entries"] }
	before := entries()
	const transfers = 1000
	rng := rand.New(rand.NewSource(1))
	read := make(map[string]struct{})
	written := make(map[string]struct{})
	for i := 0; i < transfers; i++ {
		method, args := workload.ABSFlatInput(rng)
		tx, _, err := client.NewConfidentialTx(abs, method, args...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(tx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Receipt.Status != chain.ReceiptOK {
			t.Fatalf("transfer %d failed: %s", i, res.Receipt.Output)
		}
		for k := range res.ReadSet {
			read[k] = struct{}{}
		}
		for k := range res.WriteKeys {
			written[k] = struct{}{}
		}
		var batch storage.Batch
		if err := res.AppendWrites(&batch); err != nil {
			t.Fatal(err)
		}
		err = store.WriteBatch(&batch)
		engine.SettleWrites(err == nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	// The contract's code record is the one entry no transaction's read set
	// names.
	const slack = 1
	grew := entries() - before
	if len(written)-len(read) < transfers*9/10 {
		t.Fatalf("%d keys written and %d read: the transfers did not write mostly fresh, unread ids", len(written), len(read))
	}
	if grew > int64(len(read)+slack) {
		t.Errorf("read-cache gauge grew by %d over %d transfers, want at most the %d keys read + %d", grew, transfers, len(read), slack)
	}
	t.Logf("gauge grew by %d; %d keys read, %d written", grew, len(read), len(written))
}
