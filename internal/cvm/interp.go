package cvm

import (
	"errors"
	"fmt"
)

// VM executes one contract invocation against a Program and an Env. A VM is
// single-use per invocation (the engine pools the backing memory buffers).
type VM struct {
	prog *Program
	env  *envState
	mem  []byte

	gasLimit uint64
	gasUsed  uint64

	stack []int64
	depth int
}

// envState wraps the user Env so internal code can reach it uniformly.
type envState struct {
	Env
}

// Limits.
const (
	maxCallDepth = 64
	maxMemPages  = 256 // 16 MiB — the enclave budget keeps contracts small
	maxStack     = 64 << 10
)

// Exported limit aliases so the compiled runtime enforces the same bounds.
const (
	MaxCallDepth = maxCallDepth
	MaxMemPages  = maxMemPages
	// DefaultGasLimit applies when Config.GasLimit is zero.
	DefaultGasLimit = 100_000_000
)

// ErrOutOfGas reports gas exhaustion.
var ErrOutOfGas = errors.New("cvm: out of gas")

// Config parameterizes one execution.
type Config struct {
	// GasLimit bounds executed instructions (each costs ≥1). 0 means the
	// engine default of 100M.
	GasLimit uint64
	// MemoryBuffer, when non-nil, is used as the linear memory backing
	// store if large enough (the enclave memory pool hands these in).
	MemoryBuffer []byte
}

// NewVM prepares an execution of prog against env.
func NewVM(prog *Program, env Env, cfg Config) *VM {
	gas := cfg.GasLimit
	if gas == 0 {
		gas = DefaultGasLimit
	}
	need := prog.memPages * PageSize
	var mem []byte
	if cfg.MemoryBuffer != nil && cap(cfg.MemoryBuffer) >= need {
		mem = cfg.MemoryBuffer[:need]
		for i := range mem {
			mem[i] = 0
		}
	} else {
		mem = make([]byte, need)
	}
	for _, d := range prog.data {
		copy(mem[d.Offset:], d.Bytes)
	}
	return &VM{
		prog:     prog,
		env:      &envState{env},
		mem:      mem,
		gasLimit: gas,
		stack:    make([]int64, 0, 1024),
	}
}

// GasUsed reports instructions consumed so far.
func (vm *VM) GasUsed() uint64 { return vm.gasUsed }

// Run invokes function 0 ("invoke") with the given arguments and returns
// its result (0 when the entry returns nothing).
func (vm *VM) Run(args ...int64) (int64, error) {
	mRuns.Inc()
	startGas := vm.gasUsed
	defer func() { mInstructions.Add(vm.gasUsed - startGas) }()
	f := &vm.prog.funcs[0]
	if len(args) != f.numParams {
		return 0, fmt.Errorf("cvm: entry wants %d args, got %d", f.numParams, len(args))
	}
	vm.stack = append(vm.stack, args...)
	if err := vm.call(0); err != nil {
		return 0, err
	}
	if f.numResults == 1 {
		return vm.stack[len(vm.stack)-1], nil
	}
	return 0, nil
}

// Bounds checks below are written in overflow-safe form (compare against
// len-n instead of adding to the untrusted offset): contract-controlled
// pointers near the int64 boundary must trap like any other out-of-range
// address, not wrap around and panic the process.

func memReadAt(mem []byte, ptr, n int64) ([]byte, error) {
	if ptr < 0 || n < 0 || ptr > int64(len(mem)) || n > int64(len(mem))-ptr {
		return nil, fmt.Errorf("%w: memory read [%d,+%d) out of bounds", errTrap, ptr, n)
	}
	return mem[ptr : ptr+n], nil
}

func memWriteAt(mem []byte, ptr int64, data []byte) error {
	if ptr < 0 || ptr > int64(len(mem)) || int64(len(data)) > int64(len(mem))-ptr {
		return fmt.Errorf("%w: memory write [%d,+%d) out of bounds", errTrap, ptr, len(data))
	}
	copy(mem[ptr:], data)
	return nil
}

// LoadU64 reads the little-endian 64-bit word at addr, trapping like the
// i64.load instruction. Shared with the compiled runtime so both execution
// tiers use one bounds check and one trap message.
func LoadU64(mem []byte, addr int64) (int64, error) { return loadU64(mem, addr) }

// StoreU64 writes the little-endian 64-bit word at addr, trapping like the
// i64.store instruction. Shared with the compiled runtime.
func StoreU64(mem []byte, addr int64, v int64) error { return storeU64(mem, addr, v) }

func loadU64(mem []byte, addr int64) (int64, error) {
	if addr < 0 || addr > int64(len(mem))-8 {
		return 0, fmt.Errorf("%w: load at %d out of bounds", errTrap, addr)
	}
	b := mem[addr:]
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56), nil
}

func storeU64(mem []byte, addr int64, v int64) error {
	if addr < 0 || addr > int64(len(mem))-8 {
		return fmt.Errorf("%w: store at %d out of bounds", errTrap, addr)
	}
	u := uint64(v)
	b := mem[addr:]
	b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	b[4], b[5], b[6], b[7] = byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// call runs function fn against the shared operand stack: parameters are
// popped from the stack into locals, and results are pushed back.
func (vm *VM) call(fn int) error {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > maxCallDepth {
		return fmt.Errorf("%w: call depth exceeded", errTrap)
	}
	f := &vm.prog.funcs[fn]
	if len(vm.stack) < f.numParams {
		return fmt.Errorf("%w: stack underflow on call", errTrap)
	}
	locals := make([]int64, f.numLocals)
	base := len(vm.stack) - f.numParams
	copy(locals, vm.stack[base:])
	vm.stack = vm.stack[:base]
	entryHeight := base

	code := f.code
	stack := vm.stack
	gas := vm.gasLimit - vm.gasUsed
	var budget uint64 = gas

	// pop/push helpers operate on the local slice; it is written back to
	// vm.stack around any operation that can re-enter the VM.
	flush := func() { vm.stack = stack }
	trapUnderflow := func() error {
		flush()
		vm.gasUsed = vm.gasLimit - budget
		return fmt.Errorf("%w: stack underflow", errTrap)
	}

	ip := 0
	for ip < len(code) {
		in := code[ip]
		ip++
		if in.Op == OpNop {
			continue // fusion padding: free
		}
		if budget == 0 {
			flush()
			vm.gasUsed = vm.gasLimit
			return ErrOutOfGas
		}
		budget--
		switch in.Op {
		case OpUnreachable:
			flush()
			vm.gasUsed = vm.gasLimit - budget
			return fmt.Errorf("%w: unreachable executed", errTrap)

		case OpReturn:
			ip = len(code)

		case OpBr:
			ip += int(in.A)

		case OpBrIf:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v != 0 {
				ip += int(in.A)
			}

		case OpCall:
			flush()
			vm.gasUsed = vm.gasLimit - budget
			if err := vm.call(int(in.A)); err != nil {
				return err
			}
			stack = vm.stack
			budget = vm.gasLimit - vm.gasUsed

		case OpHost:
			sig := hostSigs[in.A]
			if len(stack) < sig.args {
				return trapUnderflow()
			}
			if budget < sig.gas {
				flush()
				vm.gasUsed = vm.gasLimit
				return ErrOutOfGas
			}
			budget -= sig.gas
			args := make([]int64, sig.args)
			copy(args, stack[len(stack)-sig.args:])
			stack = stack[:len(stack)-sig.args]
			flush()
			vm.gasUsed = vm.gasLimit - budget
			ret, err := vm.callHost(HostIndex(in.A), args)
			if err != nil {
				return err
			}
			stack = vm.stack
			budget = vm.gasLimit - vm.gasUsed
			if sig.results == 1 {
				stack = append(stack, ret)
			}

		case OpDrop:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			stack = stack[:len(stack)-1]

		case OpSelect:
			if len(stack) < 3 {
				return trapUnderflow()
			}
			c := stack[len(stack)-1]
			b := stack[len(stack)-2]
			a := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if c != 0 {
				stack = append(stack, a)
			} else {
				stack = append(stack, b)
			}

		case OpLocalGet:
			stack = append(stack, locals[in.A])
		case OpLocalSet:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpLocalTee:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			locals[in.A] = stack[len(stack)-1]

		case OpI64Const:
			stack = append(stack, in.A)

		case OpI64Add, OpI64Sub, OpI64Mul, OpI64And, OpI64Or, OpI64Xor,
			OpI64Shl, OpI64ShrS, OpI64ShrU,
			OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GtU,
			OpI64LeS, OpI64LeU, OpI64GeS, OpI64GeU:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			var r int64
			switch in.Op {
			case OpI64Add:
				r = a + b
			case OpI64Sub:
				r = a - b
			case OpI64Mul:
				r = a * b
			case OpI64And:
				r = a & b
			case OpI64Or:
				r = a | b
			case OpI64Xor:
				r = a ^ b
			case OpI64Shl:
				r = a << (uint64(b) & 63)
			case OpI64ShrS:
				r = a >> (uint64(b) & 63)
			case OpI64ShrU:
				r = int64(uint64(a) >> (uint64(b) & 63))
			case OpI64Eq:
				r = b2i(a == b)
			case OpI64Ne:
				r = b2i(a != b)
			case OpI64LtS:
				r = b2i(a < b)
			case OpI64LtU:
				r = b2i(uint64(a) < uint64(b))
			case OpI64GtS:
				r = b2i(a > b)
			case OpI64GtU:
				r = b2i(uint64(a) > uint64(b))
			case OpI64LeS:
				r = b2i(a <= b)
			case OpI64LeU:
				r = b2i(uint64(a) <= uint64(b))
			case OpI64GeS:
				r = b2i(a >= b)
			case OpI64GeU:
				r = b2i(uint64(a) >= uint64(b))
			}
			stack[len(stack)-1] = r

		case OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			if b == 0 {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: division by zero", errTrap)
			}
			var r int64
			switch in.Op {
			case OpI64DivS:
				r = a / b
			case OpI64DivU:
				r = int64(uint64(a) / uint64(b))
			case OpI64RemS:
				r = a % b
			case OpI64RemU:
				r = int64(uint64(a) % uint64(b))
			}
			stack[len(stack)-1] = r

		case OpI64Eqz:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			stack[len(stack)-1] = b2i(stack[len(stack)-1] == 0)

		case OpI64Load:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			v, err := loadU64(vm.mem, stack[len(stack)-1]+in.A)
			if err != nil {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return err
			}
			stack[len(stack)-1] = v

		case OpI64Store:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if err := storeU64(vm.mem, addr+in.A, v); err != nil {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return err
			}

		case OpI64Load8U:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			addr := stack[len(stack)-1] + in.A
			if addr < 0 || addr >= int64(len(vm.mem)) {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: load8 at %d out of bounds", errTrap, addr)
			}
			stack[len(stack)-1] = int64(vm.mem[addr])

		case OpI64Store8:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2] + in.A
			stack = stack[:len(stack)-2]
			if addr < 0 || addr >= int64(len(vm.mem)) {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: store8 at %d out of bounds", errTrap, addr)
			}
			vm.mem[addr] = byte(v)

		case OpMemorySize:
			stack = append(stack, int64(len(vm.mem)/PageSize))

		case OpMemoryGrow:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			delta := stack[len(stack)-1]
			old := int64(len(vm.mem) / PageSize)
			if delta < 0 || delta > maxMemPages || old+delta > maxMemPages {
				stack[len(stack)-1] = -1
				break
			}
			vm.mem = append(vm.mem, make([]byte, delta*PageSize)...)
			stack[len(stack)-1] = old

		case OpMemoryCopy:
			if len(stack) < 3 {
				return trapUnderflow()
			}
			n := stack[len(stack)-1]
			src := stack[len(stack)-2]
			dst := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if n < 0 || src < 0 || dst < 0 ||
				n > int64(len(vm.mem))-src || n > int64(len(vm.mem))-dst {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: memory.copy out of bounds", errTrap)
			}
			copy(vm.mem[dst:dst+n], vm.mem[src:src+n])

		case OpMemoryFill:
			if len(stack) < 3 {
				return trapUnderflow()
			}
			n := stack[len(stack)-1]
			val := stack[len(stack)-2]
			dst := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if n < 0 || dst < 0 || n > int64(len(vm.mem))-dst {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: memory.fill out of bounds", errTrap)
			}
			for i := dst; i < dst+n; i++ {
				vm.mem[i] = byte(val)
			}

		// --- Superinstructions (OPT4) ---
		case OpFusedIncLocal:
			locals[in.A] += in.B
		case OpFusedGet2:
			stack = append(stack, locals[in.A], locals[in.B])
		case OpFusedAddLL:
			stack = append(stack, locals[in.A]+locals[in.B])
		case OpFusedConstAdd:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			stack[len(stack)-1] += in.A
		case OpFusedGetConst:
			stack = append(stack, locals[in.A], in.B)
		case OpFusedLoad8L:
			addr := locals[in.A] + in.B
			if addr < 0 || addr >= int64(len(vm.mem)) {
				flush()
				vm.gasUsed = vm.gasLimit - budget
				return fmt.Errorf("%w: load8 at %d out of bounds", errTrap, addr)
			}
			stack = append(stack, int64(vm.mem[addr]))
		case OpFusedBrLtU:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if uint64(a) < uint64(b) {
				ip += int(in.A)
			}
		case OpFusedBrEqz:
			if len(stack) < 1 {
				return trapUnderflow()
			}
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == 0 {
				ip += int(in.A)
			}
		case OpFusedBrNe:
			if len(stack) < 2 {
				return trapUnderflow()
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a != b {
				ip += int(in.A)
			}

		default:
			flush()
			vm.gasUsed = vm.gasLimit - budget
			return fmt.Errorf("%w: invalid opcode %s", errTrap, in.Op.Name())
		}
		if len(stack) > maxStack {
			flush()
			vm.gasUsed = vm.gasLimit - budget
			return fmt.Errorf("%w: operand stack overflow", errTrap)
		}
	}

	// Function epilogue: the top numResults values are the results; any
	// residue the body left below them is discarded so the caller's frame
	// stays clean (wasm frames get this from validation; we enforce it at
	// run time).
	if len(stack) < entryHeight+f.numResults {
		flush()
		vm.gasUsed = vm.gasLimit - budget
		return fmt.Errorf("%w: function returned no value", errTrap)
	}
	if len(stack) > entryHeight+f.numResults {
		copy(stack[entryHeight:], stack[len(stack)-f.numResults:])
		stack = stack[:entryHeight+f.numResults]
	}
	vm.stack = stack
	vm.gasUsed = vm.gasLimit - budget
	return nil
}
