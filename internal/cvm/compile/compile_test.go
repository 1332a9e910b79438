package compile

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"confide/internal/cvm"
)

// recEnv is a recording Env: every host-visible interaction is appended to
// events so differential tests can assert the compiled runtime performs
// the identical side-effect sequence, not just the identical final state.
type recEnv struct {
	storage map[string][]byte
	input   []byte
	output  []byte
	events  []string
	caller  []byte
	callFn  func(addr, input []byte) ([]byte, error)
}

func newRecEnv() *recEnv {
	return &recEnv{storage: make(map[string][]byte), caller: []byte("caller-addr-20-bytes")}
}

func (e *recEnv) GetStorage(key []byte) ([]byte, bool, error) {
	v, ok := e.storage[string(key)]
	e.events = append(e.events, fmt.Sprintf("get %x -> %x %v", key, v, ok))
	return v, ok, nil
}

func (e *recEnv) SetStorage(key, value []byte) error {
	e.events = append(e.events, fmt.Sprintf("set %x = %x", key, value))
	e.storage[string(key)] = value
	return nil
}

func (e *recEnv) Input() []byte { return e.input }

func (e *recEnv) SetOutput(o []byte) {
	e.events = append(e.events, fmt.Sprintf("output %x", o))
	e.output = o
}

func (e *recEnv) Log(m string) { e.events = append(e.events, "log "+m) }

func (e *recEnv) Caller() []byte { return e.caller }

func (e *recEnv) CallContract(addr, input []byte) ([]byte, error) {
	e.events = append(e.events, fmt.Sprintf("call %x %x", addr, input))
	if e.callFn != nil {
		return e.callFn(addr, input)
	}
	return nil, fmt.Errorf("no contract at %x", addr)
}

// outcome captures everything observable about one execution.
type outcome struct {
	ret     int64
	errStr  string
	trap    bool
	oog     bool
	gasUsed uint64
	events  string
	storage string
	output  string
}

func describe(ret int64, gasUsed uint64, err error, env *recEnv) outcome {
	o := outcome{ret: ret, gasUsed: gasUsed, events: strings.Join(env.events, "\n")}
	if err != nil {
		o.errStr = err.Error()
		o.trap = cvm.Trap(err)
		o.oog = errors.Is(err, cvm.ErrOutOfGas)
		o.ret = 0
	}
	keys := make([]string, 0, len(env.storage))
	for k := range env.storage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(fmt.Sprintf("%x=%x;", k, env.storage[k]))
	}
	o.storage = sb.String()
	o.output = fmt.Sprintf("%x", env.output)
	return o
}

// runBoth executes the program interpreted and compiled under the same
// gas limit and input, returning both outcomes.
func runBoth(t *testing.T, p *cvm.Program, u *Unit, gas uint64, input []byte, setup func(*recEnv), args ...int64) (iOut, cOut outcome) {
	t.Helper()
	ienv := newRecEnv()
	ienv.input = input
	if setup != nil {
		setup(ienv)
	}
	vm := cvm.NewVM(p, ienv, cvm.Config{GasLimit: gas})
	ret, err := vm.Run(args...)
	iOut = describe(ret, vm.GasUsed(), err, ienv)

	cenv := newRecEnv()
	cenv.input = input
	if setup != nil {
		setup(cenv)
	}
	cret, cgas, cerr := u.Run(cenv, cvm.Config{GasLimit: gas}, args...)
	cOut = describe(cret, cgas, cerr, cenv)
	return iOut, cOut
}

// diff compiles m and checks interpreter/compiled equivalence at the given
// gas limit, then sweeps every limit from 1 to gasUsed+1 so out-of-gas at
// every instruction boundary is covered. Fusion is on: the compiler's
// input is the same fused+compacted program the interpreter executes.
func diff(t *testing.T, m *cvm.Module, input []byte, setup func(*recEnv), args ...int64) outcome {
	t.Helper()
	p, err := cvm.LoadProgram(m.Encode(), cvm.BuildOptions{Fuse: true})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	u, err := Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	iOut, cOut := runBoth(t, p, u, 0, input, setup, args...)
	if iOut != cOut {
		t.Fatalf("full-gas divergence:\ninterp:   %+v\ncompiled: %+v", iOut, cOut)
	}
	limit := iOut.gasUsed + 1
	if limit > 3000 {
		limit = 3000
	}
	for gas := uint64(1); gas <= limit; gas++ {
		ig, cg := runBoth(t, p, u, gas, input, setup, args...)
		if ig != cg {
			t.Fatalf("divergence at gas limit %d:\ninterp:   %+v\ncompiled: %+v", gas, ig, cg)
		}
	}
	return iOut
}

func singleFunc(f cvm.Func) *cvm.Module {
	return &cvm.Module{MemPages: 1, Funcs: []cvm.Func{f}}
}

func TestArithmeticAndFolding(t *testing.T) {
	// Constant chains, commutative swaps, shifts with out-of-range counts,
	// unsigned compares on negative values — the peephole folder's diet.
	b := cvm.NewFuncBuilder(2, 1, 1)
	b.GetLocal(0).Const(7).Op(cvm.OpI64Add).
		Const(3).Op(cvm.OpI64Mul).
		GetLocal(1).Op(cvm.OpI64Sub).
		Const(12).Const(30).Op(cvm.OpI64Add). // const-const fold
		Op(cvm.OpI64Xor).
		Const(65).Op(cvm.OpI64Shl). // shift count masked to 1
		GetLocal(1).Op(cvm.OpI64ShrU).
		Const(-1).Op(cvm.OpI64LtU). // unsigned compare with -1
		SetLocal(2).
		GetLocal(2).Op(cvm.OpI64Eqz).Op(cvm.OpI64Eqz).
		GetLocal(0).GetLocal(1).Op(cvm.OpI64GeS).
		Op(cvm.OpI64Add).
		Op(cvm.OpReturn)
	out := diff(t, singleFunc(b.MustFinish()), nil, nil, 100, -5)
	if out.errStr != "" {
		t.Fatalf("unexpected error: %s", out.errStr)
	}
}

func TestLoopAndFusedBranches(t *testing.T) {
	// Counting loop in the shape the fusion pass rewrites into
	// superinstructions (inc_local, br_ltu/br_ne): sum 0..n-1.
	b := cvm.NewFuncBuilder(1, 2, 1)
	top := b.NewLabel()
	b.Bind(top)
	b.GetLocal(2).GetLocal(1).Op(cvm.OpI64Add).SetLocal(2) // acc += i
	b.GetLocal(1).Const(1).Op(cvm.OpI64Add).SetLocal(1)    // i++
	b.GetLocal(1).GetLocal(0).Op(cvm.OpI64LtU).BrIf(top)
	b.GetLocal(2).Op(cvm.OpReturn)
	out := diff(t, singleFunc(b.MustFinish()), nil, nil, 10)
	if out.ret != 45 {
		t.Fatalf("sum 0..9 = %d, want 45", out.ret)
	}
	diff(t, singleFunc(b.MustFinish()), nil, nil, 1) // single-iteration edge
}

func TestSelectDropResidue(t *testing.T) {
	// Drops accumulate carried gas; extra stack residue at return exercises
	// the epilogue (top value is the result, residue discarded).
	b := cvm.NewFuncBuilder(1, 0, 1)
	b.Const(111).Const(222). // residue
					Const(10).Const(20).GetLocal(0).Op(cvm.OpSelect). // select
					Const(5).Op(cvm.OpDrop).
					Op(cvm.OpReturn)
	if out := diff(t, singleFunc(b.MustFinish()), nil, nil, 1); out.ret != 10 {
		t.Fatalf("select(1) = %d, want 10", out.ret)
	}
	if out := diff(t, singleFunc(b.MustFinish()), nil, nil, 0); out.ret != 20 {
		t.Fatalf("select(0) = %d, want 20", out.ret)
	}
}

func TestDivisionVariantsAndTrap(t *testing.T) {
	for _, op := range []cvm.Op{cvm.OpI64DivS, cvm.OpI64DivU, cvm.OpI64RemS, cvm.OpI64RemU} {
		b := cvm.NewFuncBuilder(2, 0, 1)
		b.GetLocal(0).GetLocal(1).Op(op).Op(cvm.OpReturn)
		m := singleFunc(b.MustFinish())
		diff(t, m, nil, nil, -7, 3)
		diff(t, m, nil, nil, -9223372036854775808, -1) // MinInt64 / -1 wraps
		out := diff(t, m, nil, nil, 1, 0)
		if !out.trap || !strings.Contains(out.errStr, "division by zero") {
			t.Fatalf("%v by zero: %+v", op, out)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	b := cvm.NewFuncBuilder(1, 0, 1)
	b.Const(64).GetLocal(0).OpImm(cvm.OpI64Store, 8). // mem[72] = arg
								Const(100).Const(65).OpImm(cvm.OpI64Store8, 0).
								Const(16).Const(200).Const(40).Op(cvm.OpMemoryCopy). // dst=16 src=200 n=40
								Const(300).Const(7).Const(9).Op(cvm.OpMemoryFill).
								Const(64).OpImm(cvm.OpI64Load, 8).
								Const(100).OpImm(cvm.OpI64Load8U, 0).
								Op(cvm.OpI64Add).
								Const(304).OpImm(cvm.OpI64Load, 0).
								Op(cvm.OpI64Add).
								Op(cvm.OpReturn)
	diff(t, singleFunc(b.MustFinish()), nil, nil, 1234567)

	// Out-of-bounds traps, including negative and overflow-prone addresses.
	for _, addr := range []int64{-1, 65536, 65529, 9223372036854775800} {
		lb := cvm.NewFuncBuilder(1, 0, 1)
		lb.GetLocal(0).OpImm(cvm.OpI64Load, 0).Op(cvm.OpReturn)
		out := diff(t, singleFunc(lb.MustFinish()), nil, nil, addr)
		if !out.trap || !strings.Contains(out.errStr, "out of bounds") {
			t.Fatalf("load at %d: %+v", addr, out)
		}
		sb := cvm.NewFuncBuilder(1, 0, 0)
		sb.GetLocal(0).Const(1).OpImm(cvm.OpI64Store, 0).Op(cvm.OpReturn)
		diff(t, singleFunc(sb.MustFinish()), nil, nil, addr)
		b8 := cvm.NewFuncBuilder(1, 0, 1)
		b8.GetLocal(0).OpImm(cvm.OpI64Load8U, 0).Op(cvm.OpReturn)
		diff(t, singleFunc(b8.MustFinish()), nil, nil, addr)
	}

	// memory.copy / fill out-of-bounds.
	cb := cvm.NewFuncBuilder(2, 0, 0)
	cb.GetLocal(0).GetLocal(1).Const(100).Op(cvm.OpMemoryCopy).Op(cvm.OpReturn)
	diff(t, singleFunc(cb.MustFinish()), nil, nil, 65500, 0)
	diff(t, singleFunc(cb.MustFinish()), nil, nil, 0, -1)
	fb := cvm.NewFuncBuilder(2, 0, 0)
	fb.GetLocal(0).Const(9).GetLocal(1).Op(cvm.OpMemoryFill).Op(cvm.OpReturn)
	diff(t, singleFunc(fb.MustFinish()), nil, nil, 65535, 2)
	diff(t, singleFunc(fb.MustFinish()), nil, nil, 10, -5)
}

func TestMemoryGrow(t *testing.T) {
	b := cvm.NewFuncBuilder(1, 0, 1)
	b.Op(cvm.OpMemorySize).
		GetLocal(0).Op(cvm.OpMemoryGrow).
		Op(cvm.OpMemorySize).
		Op(cvm.OpI64Add).Op(cvm.OpI64Add).
		Op(cvm.OpReturn)
	m := singleFunc(b.MustFinish())
	diff(t, m, nil, nil, 3)
	diff(t, m, nil, nil, 0)
	diff(t, m, nil, nil, 1000) // over maxMemPages: grow fails with -1
	diff(t, m, nil, nil, -1)
	diff(t, m, nil, nil, 9223372036854775807)
}

func TestDataSegments(t *testing.T) {
	b := cvm.NewFuncBuilder(0, 0, 1)
	b.Const(5).OpImm(cvm.OpI64Load, 0).Op(cvm.OpReturn)
	m := singleFunc(b.MustFinish())
	m.Data = []cvm.DataSegment{{Offset: 5, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	diff(t, m, nil, nil)
}

func TestHostCalls(t *testing.T) {
	// input_size/input_read → storage_set → storage_get → sha256 → log →
	// caller → output_write: every common host op in one program, events
	// compared byte-for-byte.
	b := cvm.NewFuncBuilder(0, 1, 1)
	b.Host(cvm.HostInputSize).SetLocal(0).
		Const(0).Const(0).GetLocal(0).Host(cvm.HostInputRead).Op(cvm.OpDrop).
		Const(0).GetLocal(0).Const(200).Const(8).Host(cvm.HostStorageSet).
		Const(0).GetLocal(0).Const(300).Const(64).Host(cvm.HostStorageGet).Op(cvm.OpDrop).
		Const(0).GetLocal(0).Const(400).Host(cvm.HostSha256).
		Const(400).Const(8).Const(440).Host(cvm.HostKeccak256).
		Const(400).Const(16).Host(cvm.HostLog).
		Const(500).Host(cvm.HostCaller).
		Const(400).Const(32).Host(cvm.HostOutputWrite).
		GetLocal(0).Op(cvm.OpReturn)
	diff(t, singleFunc(b.MustFinish()), []byte("hello world!"), func(e *recEnv) {
		e.storage["seed"] = []byte("value")
	})
	// Storage-get miss path.
	g := cvm.NewFuncBuilder(0, 0, 1)
	g.Const(0).Const(4).Const(100).Const(64).Host(cvm.HostStorageGet).Op(cvm.OpReturn)
	diff(t, singleFunc(g.MustFinish()), nil, nil)
	// Host buffer traps (negative pointer).
	tb := cvm.NewFuncBuilder(0, 0, 1)
	tb.Const(-8).Const(4).Const(0).Const(64).Host(cvm.HostStorageGet).Op(cvm.OpReturn)
	out := diff(t, singleFunc(tb.MustFinish()), nil, nil)
	if !out.trap {
		t.Fatalf("negative key pointer should trap: %+v", out)
	}
	// Host index 10 is past the table: both the interpreter and the
	// compiler take their program from LoadProgram, which refuses it.
	h10 := cvm.NewFuncBuilder(0, 0, 1)
	h10.Const(0).Const(4).Const(100).Const(64).OpImm(cvm.OpHost, 10).Op(cvm.OpReturn)
	for _, fuse := range []bool{false, true} {
		_, err := cvm.LoadProgram(singleFunc(h10.MustFinish()).Encode(), cvm.BuildOptions{Fuse: fuse})
		if !errors.Is(err, cvm.ErrBadModule) || !strings.Contains(err.Error(), "host index 10 out of range") {
			t.Fatalf("fuse=%v: host index 10 loaded: %v", fuse, err)
		}
	}
}

func TestHostCallContract(t *testing.T) {
	b := cvm.NewFuncBuilder(0, 0, 1)
	b.Const(0).Const(20).Const(4).Const(100).Const(64).Host(cvm.HostCall).Op(cvm.OpReturn)
	setup := func(e *recEnv) {
		e.callFn = func(addr, input []byte) ([]byte, error) { return append([]byte("echo:"), input...), nil }
	}
	diff(t, singleFunc(b.MustFinish()), nil, setup)
	diff(t, singleFunc(b.MustFinish()), nil, nil) // callee errors → -1
}

func TestMultiFunctionCalls(t *testing.T) {
	// f1(a,b) = a*b + 1; f2() = 0-result side-effect fn; entry combines.
	f1 := cvm.NewFuncBuilder(2, 0, 1)
	f1.GetLocal(0).GetLocal(1).Op(cvm.OpI64Mul).Const(1).Op(cvm.OpI64Add).Op(cvm.OpReturn)
	f2 := cvm.NewFuncBuilder(1, 0, 0)
	f2.Const(0).GetLocal(0).OpImm(cvm.OpI64Store, 0).Op(cvm.OpReturn)
	entry := cvm.NewFuncBuilder(2, 0, 1)
	entry.GetLocal(0).GetLocal(1).Call(1).
		TeeLocal(0).Call(2).
		GetLocal(0).Const(0).OpImm(cvm.OpI64Load, 0).Op(cvm.OpI64Add).
		Op(cvm.OpReturn)
	m := &cvm.Module{MemPages: 1, Funcs: []cvm.Func{entry.MustFinish(), f1.MustFinish(), f2.MustFinish()}}
	out := diff(t, m, nil, nil, 6, 7)
	if out.ret != 86 { // 43 + 43
		t.Fatalf("entry(6,7) = %d, want 86", out.ret)
	}
}

func TestRecursionDepthTrap(t *testing.T) {
	// f(n) = n <= 0 ? 0 : f(n-1)+1; unbounded depth traps at 64 frames.
	f := cvm.NewFuncBuilder(1, 0, 1)
	done := f.NewLabel()
	f.GetLocal(0).Const(0).Op(cvm.OpI64LeS).BrIf(done)
	f.GetLocal(0).Const(1).Op(cvm.OpI64Sub).Call(0).Const(1).Op(cvm.OpI64Add).Op(cvm.OpReturn)
	f.Bind(done)
	f.Const(0).Op(cvm.OpReturn)
	m := singleFunc(f.MustFinish())
	if out := diff(t, m, nil, nil, 20); out.ret != 20 {
		t.Fatalf("recursion(20) = %d", out.ret)
	}
	out := diff(t, m, nil, nil, 200)
	if !out.trap || !strings.Contains(out.errStr, "call depth exceeded") {
		t.Fatalf("depth trap: %+v", out)
	}
}

func TestUnreachableAndBranchShapes(t *testing.T) {
	u := cvm.NewFuncBuilder(0, 0, 0)
	u.Op(cvm.OpUnreachable)
	out := diff(t, singleFunc(u.MustFinish()), nil, nil)
	if !out.trap || !strings.Contains(out.errStr, "unreachable executed") {
		t.Fatalf("unreachable: %+v", out)
	}

	// Conditional branch straight to the function end (return-by-branch),
	// plus a constant condition the folder resolves at compile time.
	b := cvm.NewFuncBuilder(1, 0, 1)
	end := b.NewLabel()
	b.Const(42).GetLocal(0).BrIf(end).
		Op(cvm.OpDrop).Const(7).
		Const(1).BrIf(end). // constant-true condition
		Op(cvm.OpUnreachable)
	b.Bind(end)
	out = diff(t, singleFunc(b.MustFinish()), nil, nil, 1)
	if out.ret != 42 {
		t.Fatalf("br to end = %d, want 42", out.ret)
	}
	if out = diff(t, singleFunc(b.MustFinish()), nil, nil, 0); out.ret != 7 {
		t.Fatalf("fallthrough = %d, want 7", out.ret)
	}

	// Unconditional br over dead code.
	d := cvm.NewFuncBuilder(0, 0, 1)
	skip := d.NewLabel()
	d.Const(9).Br(skip).Const(1).Const(2).Op(cvm.OpI64Add).Op(cvm.OpDrop)
	d.Bind(skip)
	d.Op(cvm.OpReturn)
	diff(t, singleFunc(d.MustFinish()), nil, nil)
}

func TestEmptyBodyFunction(t *testing.T) {
	entry := cvm.NewFuncBuilder(0, 0, 1)
	entry.Call(1).Const(3).Op(cvm.OpReturn)
	empty := cvm.Func{NumParams: 1, NumLocals: 0, NumResults: 0, Code: nil}
	m := &cvm.Module{MemPages: 1, Funcs: []cvm.Func{entry.MustFinish(), empty}}
	// Call(1) consumes the const; entry pushes 3 and returns it.
	entry2 := cvm.NewFuncBuilder(0, 0, 1)
	entry2.Const(99).Call(1).Const(3).Op(cvm.OpReturn)
	m.Funcs[0] = entry2.MustFinish()
	if out := diff(t, m, nil, nil); out.ret != 3 {
		t.Fatalf("empty callee: %+v", out)
	}
}

func TestEntryArgMismatch(t *testing.T) {
	b := cvm.NewFuncBuilder(2, 0, 1)
	b.GetLocal(0).Op(cvm.OpReturn)
	p, err := cvm.LoadProgram(singleFunc(b.MustFinish()).Encode(), cvm.BuildOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	vm := cvm.NewVM(p, newRecEnv(), cvm.Config{})
	_, ierr := vm.Run(1)
	_, _, cerr := u.Run(newRecEnv(), cvm.Config{}, 1)
	if ierr == nil || cerr == nil || ierr.Error() != cerr.Error() {
		t.Fatalf("arg mismatch: interp %v, compiled %v", ierr, cerr)
	}
}

func TestDeclineUnsupportedDepth(t *testing.T) {
	// A function pushing 600 constants exceeds maxCompiledHeight.
	b := cvm.NewFuncBuilder(0, 0, 1)
	for i := 0; i < 600; i++ {
		b.Const(int64(i))
	}
	for i := 0; i < 599; i++ {
		b.Op(cvm.OpI64Add)
	}
	b.Op(cvm.OpReturn)
	p, err := cvm.LoadProgram(singleFunc(b.MustFinish()).Encode(), cvm.BuildOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := Compile(p)
	if Reason(cerr) != "stack-depth" {
		t.Fatalf("want stack-depth decline, got %v (reason %q)", cerr, Reason(cerr))
	}
}

func TestCompiledMatchesUnfusedInterp(t *testing.T) {
	// Replica-mix check at the program level: the compiled unit built from
	// the FUSED program must agree with an interpreter running the UNFUSED
	// program on results and trap behavior. Gas is NOT compared against the
	// unfused tier — a superinstruction charges 1 where its originals
	// charged 3 (OPT4's documented gas model), so replicas must share a
	// fusion setting; the compiled tier must match the FUSED interpreter's
	// gas exactly, which diff() sweeps elsewhere.
	b := cvm.NewFuncBuilder(1, 2, 1)
	top := b.NewLabel()
	b.Bind(top)
	b.GetLocal(2).GetLocal(1).Op(cvm.OpI64Add).SetLocal(2)
	b.GetLocal(1).Const(1).Op(cvm.OpI64Add).SetLocal(1)
	b.GetLocal(1).GetLocal(0).Op(cvm.OpI64LtU).BrIf(top)
	b.GetLocal(2).Op(cvm.OpReturn)
	wire := singleFunc(b.MustFinish()).Encode()

	plain, err := cvm.LoadProgram(wire, cvm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := cvm.LoadProgram(wire, cvm.BuildOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Compile(fused)
	if err != nil {
		t.Fatal(err)
	}
	vm := cvm.NewVM(plain, newRecEnv(), cvm.Config{})
	iret, ierr := vm.Run(int64(12))
	cret, _, cerr := u.Run(newRecEnv(), cvm.Config{}, 12)
	if ierr != nil || cerr != nil {
		t.Fatalf("interp err %v, compiled err %v", ierr, cerr)
	}
	if iret != cret {
		t.Fatalf("ret %d vs %d", iret, cret)
	}
	// Gas parity against the fused interpreter, at every limit up to full.
	fvm := cvm.NewVM(fused, newRecEnv(), cvm.Config{})
	if _, err := fvm.Run(int64(12)); err != nil {
		t.Fatal(err)
	}
	for gas := uint64(1); gas <= fvm.GasUsed()+1; gas++ {
		gvm := cvm.NewVM(fused, newRecEnv(), cvm.Config{GasLimit: gas})
		giret, gierr := gvm.Run(int64(12))
		gcret, gcgas, gcerr := u.Run(newRecEnv(), cvm.Config{GasLimit: gas}, 12)
		if (gierr == nil) != (gcerr == nil) {
			t.Fatalf("gas %d: interp err %v, compiled err %v", gas, gierr, gcerr)
		}
		if gierr != nil && gierr.Error() != gcerr.Error() {
			t.Fatalf("gas %d: error mismatch %q vs %q", gas, gierr, gcerr)
		}
		if gierr == nil && giret != gcret {
			t.Fatalf("gas %d: ret %d vs %d", gas, giret, gcret)
		}
		if gvm.GasUsed() != gcgas {
			t.Fatalf("gas %d: gasUsed %d vs %d", gas, gvm.GasUsed(), gcgas)
		}
	}
}

func TestUnitIsConcurrencySafe(t *testing.T) {
	b := cvm.NewFuncBuilder(1, 1, 1)
	top := b.NewLabel()
	b.Bind(top)
	b.OpImm(cvm.OpFusedIncLocal, 1)
	// builder has no fused-imm helper with two imms; do it the long way:
	b2 := cvm.NewFuncBuilder(1, 1, 1)
	top = b2.NewLabel()
	b2.Bind(top)
	b2.GetLocal(1).Const(1).Op(cvm.OpI64Add).SetLocal(1)
	b2.GetLocal(1).GetLocal(0).Op(cvm.OpI64LtU).BrIf(top)
	b2.GetLocal(1).Op(cvm.OpReturn)
	p, err := cvm.LoadProgram(singleFunc(b2.MustFinish()).Encode(), cvm.BuildOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(n int64) {
			for i := 0; i < 200; i++ {
				ret, _, err := u.Run(newRecEnv(), cvm.Config{}, n)
				if err != nil {
					done <- err
					return
				}
				if ret != n {
					done <- fmt.Errorf("ret %d want %d", ret, n)
					return
				}
			}
			done <- nil
		}(int64(100 + g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
