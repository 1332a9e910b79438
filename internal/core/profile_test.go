package core

import (
	"testing"

	"confide/internal/chain"
	"confide/internal/metrics"
)

// Two engines fed the same transactions time the same occurrences: every
// count matches exactly, and each operation took one sample in every
// SampleEvery occurrences, starting with the first.
func TestProfileSamplesDeterministically(t *testing.T) {
	const n = 70 // one stride and then some: two samples of each per-transaction step
	a, b := newStack(t, AllOptimizations()), newStack(t, AllOptimizations())
	client, _ := NewClient(a.engine.EnvelopePublicKey())
	var txs []*chain.Tx
	for i := 0; i < n; i++ {
		tx, _, err := client.NewConfidentialTx(counterAddr, "set", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	for _, s := range []*testStack{a, b} {
		deployCounter(t, s.engine, counterAddr, VMCVM, true)
		s.engine.Profile().Reset()
		s.engine.PreVerifyBatch(txs)
		for _, tx := range txs {
			if _, err := s.engine.Execute(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	pa, pb := a.engine.Profile(), b.engine.Profile()
	for o, name := range opNames {
		sa, sb := &pa.slots[o], &pb.slots[o]
		count, samples := sa.count.Load(), sa.samples.Load()
		if sb.count.Load() != count || sb.samples.Load() != samples {
			t.Errorf("%s: engines counted %d and %d, sampled %d and %d",
				name, count, sb.count.Load(), samples, sb.samples.Load())
		}
		if want := (count + SampleEvery - 1) / SampleEvery; samples != want {
			t.Errorf("%s: %d occurrences sampled %d times, want %d", name, count, samples, want)
		}
	}
	if got := pa.Snapshot()[OpContractCall].Count; got != n {
		t.Errorf("%s counted %d, want %d", OpContractCall, got, n)
	}
}

// With the registry switched off, the confide_core_op* series stay still and
// no operation is timed, while the engine's own counts still advance.
func TestProfileCountsWithRegistryOff(t *testing.T) {
	s := newStack(t, AllOptimizations())
	deployCounter(t, s.engine, counterAddr, VMCVM, true)
	client, _ := NewClient(s.engine.EnvelopePublicKey())
	tx, _, _ := client.NewConfidentialTx(counterAddr, "set", []byte("x"))

	reg := metrics.Default()
	reg.SetEnabled(false)
	defer reg.SetEnabled(true)
	s.engine.Profile().Reset()
	before := reg.Snapshot()
	if _, err := s.engine.Execute(tx); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	for _, name := range opNames {
		ops := `confide_core_ops_total{op="` + name + `"}`
		seconds := `confide_core_op_seconds{op="` + name + `"}`
		if after.Counters[ops] != before.Counters[ops] || after.Histograms[seconds].Count != before.Histograms[seconds].Count {
			t.Errorf("%s: the registry series moved while it was off", name)
		}
	}
	snap := s.engine.Profile().Snapshot()
	for _, name := range []string{OpContractCall, OpTxDecrypt, OpTxVerify, OpSetStorage} {
		if e := snap[name]; e.Count != 1 || e.Duration != 0 {
			t.Errorf("%s: count %d, duration %v; want 1 and untimed", name, e.Count, e.Duration)
		}
	}
}
