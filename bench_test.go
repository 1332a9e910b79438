// Repository-level microbenchmarks of the performance-critical substrates.
// The paper's tables and figures run through one harness, cmd/benchrunner
// -exp (internal/bench), whose smoke tests cover every experiment.
package confide_test

import (
	"fmt"
	"math/rand"
	"testing"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/crypto"
	"confide/internal/cvm"
	"confide/internal/evm"
	"confide/internal/kms"
	"confide/internal/storage"
	"confide/internal/tee"
	"confide/internal/workload"
)

// ---------------------------------------------------------------------------
// Microbenchmarks: the substrates the experiments stand on.
// ---------------------------------------------------------------------------

// BenchmarkVMLoop compares raw interpreter dispatch: the same counting loop
// on CONFIDE-VM (plain and fused) and on the EVM baseline.
func BenchmarkVMLoop(b *testing.B) {
	const loopSrc = `
fn invoke() {
	let acc = 0;
	let i = 0;
	while i < 10000 {
		acc = acc + i;
		i = i + 1;
	}
	let out = alloc(8);
	store8(out, acc & 255);
	output(out, 1);
}`
	mod, err := ccl.CompileCVM(loopSrc)
	if err != nil {
		b.Fatal(err)
	}
	evmCode, err := ccl.CompileEVM(loopSrc)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, fuse bool) {
		prog, err := cvm.BuildProgram(mod, cvm.BuildOptions{Fuse: fuse})
		if err != nil {
			b.Fatal(err)
		}
		env := newBenchEnv()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cvm.NewVM(prog, env, cvm.Config{}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("confide-vm-plain", func(b *testing.B) { run(b, false) })
	b.Run("confide-vm-fused", func(b *testing.B) { run(b, true) })
	b.Run("evm", func(b *testing.B) {
		env := newBenchEnv()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := evm.New(evmCode, env, evm.Config{}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type benchEnv struct {
	storage map[string][]byte
	out     []byte
}

func newBenchEnv() *benchEnv { return &benchEnv{storage: map[string][]byte{}} }

func (e *benchEnv) GetStorage(key []byte) ([]byte, bool, error) {
	v, ok := e.storage[string(key)]
	return v, ok, nil
}
func (e *benchEnv) SetStorage(key, value []byte) error {
	e.storage[string(key)] = value
	return nil
}
func (e *benchEnv) Input() []byte                             { return nil }
func (e *benchEnv) SetOutput(o []byte)                        { e.out = o }
func (e *benchEnv) Log(string)                                {}
func (e *benchEnv) Caller() []byte                            { return make([]byte, 20) }
func (e *benchEnv) CallContract(a, in []byte) ([]byte, error) { return nil, nil }

// BenchmarkEnvelope measures the T-Protocol paths the pre-verification
// pipeline trades between: full asymmetric open vs cached symmetric open.
func BenchmarkEnvelope(b *testing.B) {
	key, err := crypto.GenerateEnvelopeKey()
	if err != nil {
		b.Fatal(err)
	}
	ktx, _ := crypto.RandomKey()
	payload := make([]byte, 512)
	env, err := crypto.SealEnvelope(key.Public(), ktx, payload)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := crypto.SealEnvelope(key.Public(), ktx, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := key.OpenEnvelope(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-cached-ktx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := crypto.OpenEnvelopeWithKey(env, ktx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDProtocol measures state seal/open (AES-GCM with AAD) at the
// paper's typical ABS record size.
func BenchmarkDProtocol(b *testing.B) {
	key, _ := crypto.RandomKey()
	state := make([]byte, 1024)
	aad := []byte("contract/abcd/v1")
	sealed, _ := crypto.SealAEAD(key, state, aad)
	b.Run("seal-1KB", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := crypto.SealAEAD(key, state, aad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-1KB", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := crypto.OpenAEAD(key, sealed, aad); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLSMStore measures the durable KV substrate.
func BenchmarkLSMStore(b *testing.B) {
	s, err := storage.OpenLSM(b.TempDir(), storage.LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	value := make([]byte, 256)
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%09d", i)), value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Get([]byte(fmt.Sprintf("key-%09d", i%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineExecute measures the Confidential-Engine's per-transaction
// execution path on the ABS contract (cache-hit steady state).
func BenchmarkEngineExecute(b *testing.B) {
	secrets, err := kms.GenerateSecrets()
	if err != nil {
		b.Fatal(err)
	}
	root, _ := tee.NewRootOfTrust()
	store := storage.NewMemStore()
	engine, err := core.NewConfidentialEngine(tee.NewPlatform(root), secrets, store,
		tee.Config{InjectDelays: true}, core.AllOptimizations())
	if err != nil {
		b.Fatal(err)
	}
	code, err := workload.CompileCVM(workload.ABSTransferFlatSrc)
	if err != nil {
		b.Fatal(err)
	}
	addr := chain.AddressFromBytes([]byte("abs"))
	if err := engine.DeployContract(addr, chain.AddressFromBytes([]byte("o")), core.VMCVM, code, true, 1); err != nil {
		b.Fatal(err)
	}
	client, _ := core.NewClient(engine.EnvelopePublicKey())
	rng := rand.New(rand.NewSource(9))
	txs := make([]*chain.Tx, 256)
	for i := range txs {
		method, args := workload.ABSFlatInput(rng)
		txs[i], _, err = client.NewConfidentialTx(addr, method, args...)
		if err != nil {
			b.Fatal(err)
		}
	}
	engine.PreVerifyBatch(txs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Execute(txs[i%len(txs)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Receipt.Status != chain.ReceiptOK {
			b.Fatalf("tx failed: %s", res.Receipt.Output)
		}
	}
}

// BenchmarkKeccak measures the from-scratch Keccak-256.
func BenchmarkKeccak(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		crypto.Keccak256(data)
	}
}
