package cvm

import (
	"crypto/sha256"
	"errors"
	"fmt"

	ccrypto "confide/internal/crypto"
)

// Env is the VM's window onto the blockchain: contract storage, the call's
// input/output, logging and cross-contract calls. Inside the
// Confidential-Engine the SDM implements Env so every storage access flows
// through the D-Protocol crypto engine and the state cache; the
// Public-Engine implements it directly over the KV store.
type Env interface {
	// GetStorage returns the value under key in the executing contract's
	// state, found=false when absent.
	GetStorage(key []byte) (value []byte, found bool, err error)
	// SetStorage writes the executing contract's state.
	SetStorage(key, value []byte) error
	// Input returns the call input (method and arguments, ABI-encoded by
	// the caller's convention).
	Input() []byte
	// SetOutput records the call's return data.
	SetOutput(out []byte)
	// Log records a human-readable event line.
	Log(msg string)
	// Caller returns the 20-byte address of the transaction sender or the
	// calling contract.
	Caller() []byte
	// CallContract synchronously executes another contract with the given
	// input and returns its output. The engine enforces call depth.
	CallContract(addr []byte, input []byte) ([]byte, error)
}

// HostIndex identifies one host ("env") function. Indices are part of the
// contract ABI and never change.
type HostIndex int

// The canonical host-function table. Signatures are in stack order:
// arguments pushed left to right, so the rightmost is on top.
const (
	// HostInputSize () → size of the call input.
	HostInputSize HostIndex = 0
	// HostInputRead (dstPtr, srcOff, n) → bytes copied.
	HostInputRead HostIndex = 1
	// HostOutputWrite (ptr, n) → 0. Sets the call's return data.
	HostOutputWrite HostIndex = 2
	// HostStorageGet (keyPtr, keyLen, valPtr, valCap) → value length, or -1
	// when absent. When the value exceeds valCap nothing is copied and the
	// needed length is returned; the contract grows its buffer and retries.
	HostStorageGet HostIndex = 3
	// HostStorageSet (keyPtr, keyLen, valPtr, valLen) → 0.
	HostStorageSet HostIndex = 4
	// HostSha256 (ptr, n, dstPtr) → 0. Writes 32 bytes.
	HostSha256 HostIndex = 5
	// HostKeccak256 (ptr, n, dstPtr) → 0. Writes 32 bytes.
	HostKeccak256 HostIndex = 6
	// HostLog (ptr, n) → 0.
	HostLog HostIndex = 7
	// HostCaller (dstPtr) → 0. Writes the 20-byte caller address.
	HostCaller HostIndex = 8
	// HostCall (addrPtr, inPtr, inLen, outPtr, outCap) → output length, or
	// the needed length if it exceeds outCap (nothing copied), or -1 if the
	// callee trapped.
	HostCall HostIndex = 9

	numHostFuncs = 10
	// NumHostFuncs exports the host-table size for the compiler's
	// validation pass.
	NumHostFuncs = numHostFuncs
)

// hostSig describes a host function's arity.
type hostSig struct {
	args    int
	results int
	gas     uint64
}

var hostSigs = [numHostFuncs]hostSig{
	HostInputSize:   {0, 1, 2},
	HostInputRead:   {3, 1, 10},
	HostOutputWrite: {2, 0, 10},
	HostStorageGet:  {4, 1, 200},
	HostStorageSet:  {4, 0, 400},
	HostSha256:      {3, 0, 60},
	HostKeccak256:   {3, 0, 60},
	HostLog:         {2, 0, 20},
	HostCaller:      {1, 0, 2},
	HostCall:        {5, 1, 700},
}

// ErrTrap is the sentinel every contract trap wraps (bounds violations,
// div by zero, etc.). Exported so the ahead-of-time compiler's runtime can
// produce traps indistinguishable from the interpreter's.
var ErrTrap = errors.New("cvm: trap")

// errTrap is the internal alias the interpreter predates ErrTrap with.
var errTrap = ErrTrap

// Trap reports whether err is a VM trap (as opposed to an engine error).
func Trap(err error) bool { return errors.Is(err, errTrap) }

// HostSig reports a host function's arity and fixed gas surcharge. The
// compiled runtime charges host calls exactly like the interpreter.
func HostSig(idx HostIndex) (args, results int, gas uint64) {
	sig := hostSigs[idx]
	return sig.args, sig.results, sig.gas
}

// callHost dispatches one host call against the environment.
func (vm *VM) callHost(idx HostIndex, args []int64) (int64, error) {
	return DispatchHost(vm.env.Env, vm.mem, idx, args)
}

// DispatchHost executes one host call against env with mem as the calling
// program's linear memory. Buffer reads and writes are bounds-checked
// against mem. It is the single host-ABI implementation shared by the
// interpreter and the compiled runtime, so the two execution tiers cannot
// drift: identical inputs produce identical outputs, identical traps with
// identical messages, and identical side-effect sequences on env.
func DispatchHost(env Env, mem []byte, idx HostIndex, args []int64) (int64, error) {
	mHostCalls.Inc()
	switch idx {
	case HostInputSize:
		return int64(len(env.Input())), nil

	case HostInputRead:
		dst, off, n := args[0], args[1], args[2]
		in := env.Input()
		if off < 0 || n < 0 || off > int64(len(in)) {
			return 0, fmt.Errorf("%w: input_read out of range", errTrap)
		}
		end := off + n
		if end > int64(len(in)) || end < 0 {
			end = int64(len(in))
		}
		chunk := in[off:end]
		if err := memWriteAt(mem, dst, chunk); err != nil {
			return 0, err
		}
		return int64(len(chunk)), nil

	case HostOutputWrite:
		buf, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		env.SetOutput(append([]byte(nil), buf...))
		return 0, nil

	case HostStorageGet:
		key, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		val, found, err := env.GetStorage(key)
		if err != nil {
			return 0, err
		}
		if !found {
			return -1, nil
		}
		if int64(len(val)) > args[3] {
			return int64(len(val)), nil
		}
		if err := memWriteAt(mem, args[2], val); err != nil {
			return 0, err
		}
		return int64(len(val)), nil

	case HostStorageSet:
		key, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		val, err := memReadAt(mem, args[2], args[3])
		if err != nil {
			return 0, err
		}
		return 0, env.SetStorage(append([]byte(nil), key...), append([]byte(nil), val...))

	case HostSha256:
		buf, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256(buf)
		return 0, memWriteAt(mem, args[2], sum[:])

	case HostKeccak256:
		buf, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		sum := ccrypto.Keccak256(buf)
		return 0, memWriteAt(mem, args[2], sum[:])

	case HostLog:
		buf, err := memReadAt(mem, args[0], args[1])
		if err != nil {
			return 0, err
		}
		env.Log(string(buf))
		return 0, nil

	case HostCaller:
		return 0, memWriteAt(mem, args[0], env.Caller())

	case HostCall:
		addr, err := memReadAt(mem, args[0], 20)
		if err != nil {
			return 0, err
		}
		input, err := memReadAt(mem, args[1], args[2])
		if err != nil {
			return 0, err
		}
		out, err := env.CallContract(append([]byte(nil), addr...), append([]byte(nil), input...))
		if err != nil {
			return -1, nil
		}
		if int64(len(out)) > args[4] {
			return int64(len(out)), nil
		}
		if err := memWriteAt(mem, args[3], out); err != nil {
			return 0, err
		}
		return int64(len(out)), nil
	}
	return 0, fmt.Errorf("%w: unknown host function %d", errTrap, idx)
}
