package ccl

import (
	"fmt"

	"confide/internal/cvm"
)

// CVM memory layout:
//
//	0..8    heap pointer (i64, little endian)
//	8..16   scratch
//	16..    static string data (data segments)
//	then    bump-allocated heap
const (
	cvmHeapPtrAddr = 0
	cvmStaticBase  = 16
)

// CompileCVM compiles CCL source to a CONFIDE-VM wire module. Function 0 is
// invoke.
func CompileCVM(src string) (*cvm.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return compileCVMProgram(prog)
}

func compileCVMProgram(prog *Program) (*cvm.Module, error) {
	// Function index assignment: invoke first.
	order := []*FuncDecl{prog.byName["invoke"]}
	for _, fn := range prog.Funcs {
		if fn.Name != "invoke" {
			order = append(order, fn)
		}
	}
	indexOf := make(map[string]int, len(order))
	for i, fn := range order {
		indexOf[fn.Name] = i
	}

	// Lay out string literals.
	strs := collectStrings(prog)
	strOffsets := make(map[int]int64)
	offset := int64(cvmStaticBase)
	var data []cvm.DataSegment
	for _, s := range strs {
		strOffsets[s.id] = offset
		if len(s.Val) > 0 {
			data = append(data, cvm.DataSegment{Offset: int(offset), Bytes: s.Val})
		}
		offset += int64(len(s.Val))
	}
	heapStart := (offset + 7) &^ 7

	// One linear-memory page (64 KiB) covers every CCL contract's static
	// strings plus bump-heap with an order of magnitude to spare — and the
	// whole arena is zeroed on every invocation, so idle pages are pure
	// per-transaction memset cost (8 pages ≈ 60 µs/run of it on commodity
	// hardware). A contract that outgrows the arena fails loudly: stores
	// past the bound trap and the transaction reports the error.
	pages := int(heapStart+cvm.PageSize-1) / cvm.PageSize
	if pages < 1 {
		pages = 1
	}
	m := &cvm.Module{MemPages: pages, Data: data}
	for _, fn := range order {
		g := &cvmGen{
			indexOf:    indexOf,
			strOffsets: strOffsets,
			fn:         fn,
			tmp0:       fn.numLocals,
			tmp1:       fn.numLocals + 1,
		}
		results := 1
		if fn.Name == "invoke" {
			results = 0
		}
		g.b = cvm.NewFuncBuilder(len(fn.Params), fn.numLocals-len(fn.Params)+2, results)
		if fn.Name == "invoke" {
			// Prologue: heapPtr = heapStart.
			g.b.Const(cvmHeapPtrAddr).Const(heapStart).OpImm(cvm.OpI64Store, 0)
		}
		if err := g.stmts(fn.Body); err != nil {
			return nil, err
		}
		if results == 1 {
			// Default result for fall-through paths.
			g.b.Const(0)
		}
		f, err := g.b.Finish()
		if err != nil {
			return nil, fmt.Errorf("ccl: %s: %w", fn.Name, err)
		}
		m.Funcs = append(m.Funcs, f)
	}
	return m, nil
}

// cvmGen generates one function.
type cvmGen struct {
	b          *cvm.FuncBuilder
	indexOf    map[string]int
	strOffsets map[int]int64
	fn         *FuncDecl
	tmp0, tmp1 int
	loops      []cvmLoop
}

type cvmLoop struct {
	top  cvm.Label
	exit cvm.Label
}

func (g *cvmGen) stmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *cvmGen) stmt(s Stmt) error {
	switch s := s.(type) {
	case *LetStmt:
		if err := g.expr(s.Init); err != nil {
			return err
		}
		g.b.SetLocal(g.fn.localIndex[s.Name])
		return nil
	case *AssignStmt:
		if err := g.expr(s.Val); err != nil {
			return err
		}
		g.b.SetLocal(g.fn.localIndex[s.Name])
		return nil
	case *IfStmt:
		elseL := g.b.NewLabel()
		endL := g.b.NewLabel()
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.b.Op(cvm.OpI64Eqz).BrIf(elseL)
		if err := g.stmts(s.Then); err != nil {
			return err
		}
		g.b.Br(endL)
		g.b.Bind(elseL)
		if err := g.stmts(s.Else); err != nil {
			return err
		}
		g.b.Bind(endL)
		return nil
	case *WhileStmt:
		top := g.b.NewLabel()
		exit := g.b.NewLabel()
		g.b.Bind(top)
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.b.Op(cvm.OpI64Eqz).BrIf(exit)
		g.loops = append(g.loops, cvmLoop{top: top, exit: exit})
		if err := g.stmts(s.Body); err != nil {
			return err
		}
		g.loops = g.loops[:len(g.loops)-1]
		g.b.Br(top)
		g.b.Bind(exit)
		return nil
	case *ReturnStmt:
		if s.Val != nil {
			if err := g.expr(s.Val); err != nil {
				return err
			}
		} else if g.fn.Name != "invoke" {
			g.b.Const(0)
		}
		g.b.Op(cvm.OpReturn)
		return nil
	case *BreakStmt:
		g.b.Br(g.loops[len(g.loops)-1].exit)
		return nil
	case *ContinueStmt:
		g.b.Br(g.loops[len(g.loops)-1].top)
		return nil
	case *ExprStmt:
		if err := g.expr(s.X); err != nil {
			return err
		}
		if exprYields(s.X) {
			g.b.Op(cvm.OpDrop)
		}
		return nil
	}
	return fmt.Errorf("ccl: unhandled statement %T", s)
}

// exprYields reports whether an expression leaves a value on the stack.
func exprYields(e Expr) bool {
	if c, ok := e.(*CallExpr); ok && c.builtin != nil {
		return c.builtin.hasResult
	}
	return true
}

func (g *cvmGen) expr(e Expr) error {
	switch e := e.(type) {
	case *NumLit:
		g.b.Const(e.Val)
		return nil
	case *StrLenExpr:
		g.b.Const(e.N)
		return nil
	case *StrLit:
		g.b.Const(g.strOffsets[e.id])
		return nil
	case *VarRef:
		g.b.GetLocal(e.slot)
		return nil
	case *UnaryExpr:
		switch e.Op {
		case "-":
			g.b.Const(0)
			if err := g.expr(e.X); err != nil {
				return err
			}
			g.b.Op(cvm.OpI64Sub)
		case "!":
			if err := g.expr(e.X); err != nil {
				return err
			}
			g.b.Op(cvm.OpI64Eqz)
		}
		return nil
	case *BinExpr:
		return g.binExpr(e)
	case *CallExpr:
		if e.builtin != nil {
			return g.builtinCall(e)
		}
		for _, a := range e.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		g.b.Call(g.indexOf[e.Name])
		return nil
	}
	return fmt.Errorf("ccl: unhandled expression %T", e)
}

var cvmBinOps = map[string]cvm.Op{
	"+": cvm.OpI64Add, "-": cvm.OpI64Sub, "*": cvm.OpI64Mul,
	"/": cvm.OpI64DivS, "%": cvm.OpI64RemS,
	"&": cvm.OpI64And, "|": cvm.OpI64Or, "^": cvm.OpI64Xor,
	"<<": cvm.OpI64Shl, ">>": cvm.OpI64ShrU,
	"==": cvm.OpI64Eq, "!=": cvm.OpI64Ne,
	"<": cvm.OpI64LtS, "<=": cvm.OpI64LeS,
	">": cvm.OpI64GtS, ">=": cvm.OpI64GeS,
}

func (g *cvmGen) binExpr(e *BinExpr) error {
	switch e.Op {
	case "&&":
		falseL := g.b.NewLabel()
		endL := g.b.NewLabel()
		if err := g.expr(e.L); err != nil {
			return err
		}
		g.b.Op(cvm.OpI64Eqz).BrIf(falseL)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.b.Op(cvm.OpI64Eqz).Op(cvm.OpI64Eqz)
		g.b.Br(endL)
		g.b.Bind(falseL)
		g.b.Const(0)
		g.b.Bind(endL)
		return nil
	case "||":
		trueL := g.b.NewLabel()
		endL := g.b.NewLabel()
		if err := g.expr(e.L); err != nil {
			return err
		}
		g.b.BrIf(trueL)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.b.Op(cvm.OpI64Eqz).Op(cvm.OpI64Eqz)
		g.b.Br(endL)
		g.b.Bind(trueL)
		g.b.Const(1)
		g.b.Bind(endL)
		return nil
	}
	if err := g.expr(e.L); err != nil {
		return err
	}
	if err := g.expr(e.R); err != nil {
		return err
	}
	op, ok := cvmBinOps[e.Op]
	if !ok {
		return fmt.Errorf("ccl: unsupported operator %q", e.Op)
	}
	g.b.Op(op)
	return nil
}

func (g *cvmGen) builtinCall(e *CallExpr) error {
	// Evaluate arguments left to right (host-call stack order).
	emitArgs := func() error {
		for _, a := range e.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		return nil
	}
	switch e.builtin.name {
	case "alloc":
		if err := emitArgs(); err != nil {
			return err
		}
		// tmp0 = n; tmp1 = heapPtr; heapPtr = tmp1 + align8(tmp0); result tmp1.
		g.b.SetLocal(g.tmp0)
		g.b.Const(cvmHeapPtrAddr).OpImm(cvm.OpI64Load, 0).SetLocal(g.tmp1)
		g.b.Const(cvmHeapPtrAddr)
		g.b.GetLocal(g.tmp1)
		g.b.GetLocal(g.tmp0).Const(7).Op(cvm.OpI64Add).Const(-8).Op(cvm.OpI64And)
		g.b.Op(cvm.OpI64Add)
		g.b.OpImm(cvm.OpI64Store, 0)
		g.b.GetLocal(g.tmp1)
		return nil
	case "load8":
		if err := emitArgs(); err != nil {
			return err
		}
		g.b.OpImm(cvm.OpI64Load8U, 0)
		return nil
	case "store8":
		if err := emitArgs(); err != nil {
			return err
		}
		g.b.OpImm(cvm.OpI64Store8, 0)
		return nil
	case "memcpy":
		if err := emitArgs(); err != nil {
			return err
		}
		g.b.Op(cvm.OpMemoryCopy)
		return nil
	case "memset":
		if err := emitArgs(); err != nil {
			return err
		}
		g.b.Op(cvm.OpMemoryFill)
		return nil
	case "len":
		return g.expr(e.Args[0]) // already a StrLenExpr constant
	case "fail":
		g.b.Op(cvm.OpUnreachable)
		return nil
	case "input_size", "input_read", "output", "storage_get", "storage_set",
		"sha256", "keccak256", "log", "caller", "call":
		if err := emitArgs(); err != nil {
			return err
		}
		g.b.Host(cvmHostFor(e.builtin.name))
		return nil
	}
	return fmt.Errorf("ccl: builtin %q is not available on CONFIDE-VM", e.builtin.name)
}

func cvmHostFor(name string) cvm.HostIndex {
	switch name {
	case "input_size":
		return cvm.HostInputSize
	case "input_read":
		return cvm.HostInputRead
	case "output":
		return cvm.HostOutputWrite
	case "storage_get":
		return cvm.HostStorageGet
	case "storage_set":
		return cvm.HostStorageSet
	case "sha256":
		return cvm.HostSha256
	case "keccak256":
		return cvm.HostKeccak256
	case "log":
		return cvm.HostLog
	case "caller":
		return cvm.HostCaller
	case "call":
		return cvm.HostCall
	}
	panic("ccl: no host mapping for " + name)
}
