package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"confide/internal/ccl"
	"confide/internal/core"
)

// MakeJSON builds a flat JSON object with n string key/values, as the
// Synthetic workloads specify (35 keys for string concatenation, ~60 for
// JSON parsing). Keys and values avoid quotes/colons/commas by
// construction.
func MakeJSON(n int, rng *rand.Rand) []byte {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%q", fmt.Sprintf("key_%02d", i), randWord(rng, 8+rng.Intn(12)))
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// MakeABSJSON builds the ~60-key ABS request document, including the
// attributes the contracts extract (loan_info, bank_info, borrower,
// institution, repay_mode, amount, asset_id, body).
func MakeABSJSON(rng *rand.Rand, bodyBytes int) []byte {
	var b strings.Builder
	b.WriteByte('{')
	fmt.Fprintf(&b, `"loan_info":%q`, randWord(rng, 16))
	fmt.Fprintf(&b, `,"bank_info":%q`, randWord(rng, 16))
	fmt.Fprintf(&b, `,"borrower":%q`, randWord(rng, 12))
	fmt.Fprintf(&b, `,"institution":"bank-%c"`, 'a'+byte(rng.Intn(3)))
	fmt.Fprintf(&b, `,"repay_mode":"monthly"`)
	fmt.Fprintf(&b, `,"amount":"%d"`, 1+rng.Intn(999_999))
	fmt.Fprintf(&b, `,"asset_id":"asset-%08d"`, rng.Intn(100_000_000))
	fmt.Fprintf(&b, `,"pool_id":%q`, poolID(rng, DefaultHotPoolProb))
	for i := 0; i < 51; i++ {
		fmt.Fprintf(&b, `,"attr_%02d":%q`, i, randWord(rng, 10))
	}
	fmt.Fprintf(&b, `,"body":%q`, randWord(rng, bodyBytes))
	b.WriteByte('}')
	return []byte(b.String())
}

func randWord(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// ABS flat-encoding field indices (matching ABSTransferFlatSrc).
const absFlatFields = 11

// EncodeAssetFlat produces the Flatbuffers-style flat asset encoding: a u16
// field count, a u32 offset table, then length-prefixed field payloads —
// the contract reads any attribute by offset without scanning (OPT2).
func EncodeAssetFlat(fields [absFlatFields][]byte) []byte {
	header := 2 + absFlatFields*4
	out := make([]byte, header)
	binary.LittleEndian.PutUint16(out, absFlatFields)
	offset := 0
	for i, f := range fields {
		binary.LittleEndian.PutUint32(out[2+i*4:], uint32(offset))
		offset += 4 + len(f)
	}
	for _, f := range fields {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(f)))
		out = append(out, l[:]...)
		out = append(out, f...)
	}
	return out
}

// DefaultHotPoolProb is the fraction of transfers hitting the hot asset
// pool. Same-pool transfers contend on the pool's circulation counter, so
// this knob sets the workload's conflict rate: at 0.25, roughly a quarter
// of a block serializes, which reproduces the paper's parallel-execution
// ceiling (4-way ≈ 2×, no further gain at 6-way).
const DefaultHotPoolProb = 0.25

// poolID assigns the hot pool with probability hotProb, else a unique pool.
func poolID(rng *rand.Rand, hotProb float64) string {
	if rng.Float64() < hotProb {
		return "pool-HOT0"
	}
	return fmt.Sprintf("pool-%04d", rng.Intn(10_000))
}

// MakeAssetFlat builds a valid flat-encoded ABS asset with the given body
// size (~1 KB in production), using the default conflict rate.
func MakeAssetFlat(rng *rand.Rand, bodyBytes int) []byte {
	return MakeAssetFlatHot(rng, bodyBytes, DefaultHotPoolProb)
}

// MakeAssetFlatHot is MakeAssetFlat with an explicit hot-pool probability.
func MakeAssetFlatHot(rng *rand.Rand, bodyBytes int, hotProb float64) []byte {
	var fields [absFlatFields][]byte
	fields[0] = []byte(fmt.Sprintf("asset-%08d", rng.Intn(100_000_000)))
	fields[1] = []byte(fmt.Sprintf("bank-%c", 'a'+byte(rng.Intn(3))))
	fields[2] = []byte("monthly")
	fields[3] = []byte("receivable")
	fields[4] = []byte(fmt.Sprintf("%d", 1+rng.Intn(999_999)))
	fields[5] = []byte("0.045")
	fields[6] = []byte("2026-12-31")
	fields[7] = []byte(randWord(rng, 12))
	fields[8] = []byte(randWord(rng, 12))
	fields[9] = []byte(poolID(rng, hotProb))
	fields[10] = []byte(randWord(rng, bodyBytes))
	return EncodeAssetFlat(fields)
}

// Synthetic inputs (call-input framing included).

// StringConcatInput builds the string-concatenation call: a 35-key JSON
// document plus a 10-byte ID.
func StringConcatInput(rng *rand.Rand) (method string, args [][]byte) {
	return "concat", [][]byte{MakeJSON(35, rng), []byte(randWord(rng, 10))}
}

// ENotesInput builds the 4 KB e-note depository call.
func ENotesInput(rng *rand.Rand) (string, [][]byte) {
	return "deposit", [][]byte{
		[]byte(fmt.Sprintf("enote-%010d", rng.Intn(1_000_000_000))),
		[]byte(randWord(rng, 4096)),
	}
}

// CryptoHashInput builds the hashing call.
func CryptoHashInput(rng *rand.Rand) (string, [][]byte) {
	return "hash", [][]byte{[]byte(randWord(rng, 64))}
}

// JSONParseInput builds the ~60-key parsing call.
func JSONParseInput(rng *rand.Rand) (string, [][]byte) {
	doc := MakeABSJSON(rng, 64)
	return "parse", [][]byte{doc}
}

// ABSFlatInput / ABSJSONInput build transfer calls for the two encodings.
func ABSFlatInput(rng *rand.Rand) (string, [][]byte) {
	return "transfer", [][]byte{MakeAssetFlat(rng, 1024)}
}

// ABSFlatInputSmall is the scalability-experiment variant: a compact asset
// body, so per-transaction time is dominated by storage I/O rather than
// per-byte compute (Figure 11 measures the platform, not the contract).
func ABSFlatInputSmall(rng *rand.Rand) (string, [][]byte) {
	return "transfer", [][]byte{MakeAssetFlat(rng, 128)}
}

// ABSJSONInput builds the JSON-encoded variant.
func ABSJSONInput(rng *rand.Rand) (string, [][]byte) {
	return "transfer", [][]byte{MakeABSJSON(rng, 1024)}
}

// SCFTransferInput builds one AR transfer through the gateway.
func SCFTransferInput(rng *rand.Rand) (string, [][]byte) {
	return "transfer", [][]byte{MakeAssetFlat(rng, 256)}
}

// Compiled contract cache: compiling CCL is cheap but not free, and
// benchmarks rebuild workloads repeatedly.
var (
	compileMu   sync.Mutex
	compiledCVM = map[string][]byte{}
	compiledEVM = map[string][]byte{}
)

// CompileCVM compiles (and caches) a workload source to a CONFIDE-VM wire
// module.
func CompileCVM(src string) ([]byte, error) {
	compileMu.Lock()
	defer compileMu.Unlock()
	if code, ok := compiledCVM[src]; ok {
		return code, nil
	}
	mod, err := ccl.CompileCVM(src)
	if err != nil {
		return nil, err
	}
	code := mod.Encode()
	compiledCVM[src] = code
	return code, nil
}

// CompileEVM compiles (and caches) a workload source to EVM bytecode.
func CompileEVM(src string) ([]byte, error) {
	compileMu.Lock()
	defer compileMu.Unlock()
	if code, ok := compiledEVM[src]; ok {
		return code, nil
	}
	code, err := ccl.CompileEVM(src)
	if err != nil {
		return nil, err
	}
	compiledEVM[src] = code
	return code, nil
}

// Compile returns the source compiled for the given VM kind.
func Compile(src string, vm core.VMKind) ([]byte, error) {
	if vm == core.VMEVM {
		return CompileEVM(src)
	}
	return CompileCVM(src)
}

// Synthetic enumerates the Figure 10 workloads.
type Synthetic struct {
	Name   string
	Source string
	Input  func(rng *rand.Rand) (string, [][]byte)
}

// SyntheticWorkloads returns the four Figure 10 workloads in paper order.
func SyntheticWorkloads() []Synthetic {
	return []Synthetic{
		{"String Concatenation", StringConcatSrc, StringConcatInput},
		{"E-notes Depository (4KB)", ENotesSrc, ENotesInput},
		{"Crypto Hash", CryptoHashSrc, CryptoHashInput},
		{"JSON Parsing", JSONParseSrc, JSONParseInput},
	}
}
