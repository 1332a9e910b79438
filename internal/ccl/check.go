package ccl

import "fmt"

// builtin describes one intrinsic.
type builtin struct {
	name      string
	arity     int
	hasResult bool
}

// builtins is the intrinsic table; each backend lowers these natively.
var builtins = map[string]*builtin{
	"alloc":       {"alloc", 1, true},
	"load8":       {"load8", 1, true},
	"store8":      {"store8", 2, false},
	"memcpy":      {"memcpy", 3, false},
	"memset":      {"memset", 3, false},
	"input_size":  {"input_size", 0, true},
	"input_read":  {"input_read", 3, true},
	"output":      {"output", 2, false},
	"storage_get": {"storage_get", 4, true},
	"storage_set": {"storage_set", 4, false},
	"sha256":      {"sha256", 3, false},
	"keccak256":   {"keccak256", 3, false},
	"log":         {"log", 2, false},
	"caller":      {"caller", 1, false},
	"call":        {"call", 5, true},
	"len":         {"len", 1, true}, // compile-time length of a string literal
	"fail":        {"fail", 0, false},
}

// Check resolves names, assigns local slots and string ids, and enforces the
// structural rules both backends rely on:
//
//   - an `invoke()` entry function exists, takes no parameters and returns
//     no value (results travel through output());
//   - variables are declared before use and not redeclared;
//   - break/continue appear inside loops;
//   - call arities match; len() takes a string literal;
//   - the call graph is acyclic (the EVM backend allocates function frames
//     statically, so recursion is a compile error on both backends to keep
//     semantics identical).
func Check(prog *Program) error {
	entry, ok := prog.byName["invoke"]
	if !ok {
		return fmt.Errorf("ccl: no invoke() entry function")
	}
	if len(entry.Params) != 0 {
		return errAt(entry.Line, entry.Col, "invoke() must take no parameters")
	}
	if entry.HasResult {
		return errAt(entry.Line, entry.Col, "invoke() must not return a value; use output()")
	}
	strID := 0
	for _, fn := range prog.Funcs {
		if _, isBuiltin := builtins[fn.Name]; isBuiltin {
			return errAt(fn.Line, fn.Col, "function %q shadows a builtin", fn.Name)
		}
		c := &checker{prog: prog, fn: fn, strID: &strID}
		fn.localIndex = make(map[string]int)
		for _, param := range fn.Params {
			if _, dup := fn.localIndex[param]; dup {
				return errAt(fn.Line, fn.Col, "duplicate parameter %q", param)
			}
			fn.localIndex[param] = len(fn.localIndex)
		}
		if err := c.block(fn.Body, 0); err != nil {
			return err
		}
		fn.numLocals = len(fn.localIndex)
	}
	return checkAcyclic(prog)
}

type checker struct {
	prog  *Program
	fn    *FuncDecl
	strID *int
	loops int
}

func (c *checker) block(stmts []Stmt, loops int) error {
	for _, s := range stmts {
		if err := c.stmt(s, loops); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt, loops int) error {
	switch s := s.(type) {
	case *LetStmt:
		if err := c.expr(s.Init); err != nil {
			return err
		}
		if _, dup := c.fn.localIndex[s.Name]; dup {
			return errAt(s.Line, s.Col, "variable %q redeclared", s.Name)
		}
		c.fn.localIndex[s.Name] = len(c.fn.localIndex)
		return nil
	case *AssignStmt:
		if _, ok := c.fn.localIndex[s.Name]; !ok {
			return errAt(s.Line, s.Col, "assignment to undeclared variable %q", s.Name)
		}
		return c.expr(s.Val)
	case *IfStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		if err := c.block(s.Then, loops); err != nil {
			return err
		}
		return c.block(s.Else, loops)
	case *WhileStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		return c.block(s.Body, loops+1)
	case *ReturnStmt:
		if s.Val != nil {
			if !c.fn.HasResult {
				return errAt(s.Line, s.Col, "%s returns a value but has no result", c.fn.Name)
			}
			return c.expr(s.Val)
		}
		if c.fn.HasResult {
			return errAt(s.Line, s.Col, "%s must return a value", c.fn.Name)
		}
		return nil
	case *BreakStmt:
		if loops == 0 {
			return errAt(s.Line, s.Col, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if loops == 0 {
			return errAt(s.Line, s.Col, "continue outside loop")
		}
		return nil
	case *ExprStmt:
		return c.expr(s.X)
	}
	return fmt.Errorf("ccl: unknown statement %T", s)
}

func (c *checker) expr(e Expr) error {
	switch e := e.(type) {
	case *NumLit, *StrLenExpr:
		return nil
	case *StrLit:
		e.id = *c.strID
		*c.strID++
		return nil
	case *VarRef:
		slot, ok := c.fn.localIndex[e.Name]
		if !ok {
			return errAt(e.Line, e.Col, "undefined variable %q", e.Name)
		}
		e.slot = slot
		return nil
	case *UnaryExpr:
		return c.expr(e.X)
	case *BinExpr:
		if err := c.expr(e.L); err != nil {
			return err
		}
		return c.expr(e.R)
	case *CallExpr:
		if b, ok := builtins[e.Name]; ok {
			if len(e.Args) != b.arity {
				return errAt(e.Line, e.Col, "%s takes %d args, got %d", b.name, b.arity, len(e.Args))
			}
			if b.name == "len" {
				lit, ok := e.Args[0].(*StrLit)
				if !ok {
					return errAt(e.Line, e.Col, "len() requires a string literal")
				}
				// Registered so codegen sees a plain constant.
				e.builtin = b
				e.Args[0] = &StrLenExpr{N: int64(len(lit.Val))}
				return nil
			}
			e.builtin = b
			for _, a := range e.Args {
				if err := c.expr(a); err != nil {
					return err
				}
			}
			return nil
		}
		target, ok := c.prog.byName[e.Name]
		if !ok {
			return errAt(e.Line, e.Col, "undefined function %q", e.Name)
		}
		if e.Name == "invoke" {
			return errAt(e.Line, e.Col, "invoke() cannot be called directly")
		}
		if len(e.Args) != len(target.Params) {
			return errAt(e.Line, e.Col, "%s takes %d args, got %d", e.Name, len(target.Params), len(e.Args))
		}
		e.target = target
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("ccl: unknown expression %T", e)
}

// checkAcyclic rejects recursive call graphs.
func checkAcyclic(prog *Program) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(fn *FuncDecl) error
	visit = func(fn *FuncDecl) error {
		color[fn.Name] = gray
		for _, callee := range calleesOf(fn) {
			switch color[callee.Name] {
			case gray:
				return errAt(fn.Line, fn.Col, "recursion involving %q is not supported", callee.Name)
			case white:
				if err := visit(callee); err != nil {
					return err
				}
			}
		}
		color[fn.Name] = black
		return nil
	}
	for _, fn := range prog.Funcs {
		if color[fn.Name] == white {
			if err := visit(fn); err != nil {
				return err
			}
		}
	}
	return nil
}

func calleesOf(fn *FuncDecl) []*FuncDecl {
	var out []*FuncDecl
	seen := make(map[string]bool)
	var walkExpr func(Expr)
	var walkStmts func([]Stmt)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *CallExpr:
			if e.target != nil && !seen[e.target.Name] {
				seen[e.target.Name] = true
				out = append(out, e.target)
			}
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *UnaryExpr:
			walkExpr(e.X)
		case *BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		}
	}
	walkStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *LetStmt:
				walkExpr(s.Init)
			case *AssignStmt:
				walkExpr(s.Val)
			case *IfStmt:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *WhileStmt:
				walkExpr(s.Cond)
				walkStmts(s.Body)
			case *ReturnStmt:
				if s.Val != nil {
					walkExpr(s.Val)
				}
			case *ExprStmt:
				walkExpr(s.X)
			}
		}
	}
	walkStmts(fn.Body)
	return out
}

// collectStrings gathers every string literal in program order.
func collectStrings(prog *Program) []*StrLit {
	var out []*StrLit
	var walkExpr func(Expr)
	var walkStmts func([]Stmt)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *StrLit:
			out = append(out, e)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *UnaryExpr:
			walkExpr(e.X)
		case *BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		}
	}
	walkStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *LetStmt:
				walkExpr(s.Init)
			case *AssignStmt:
				walkExpr(s.Val)
			case *IfStmt:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *WhileStmt:
				walkExpr(s.Cond)
				walkStmts(s.Body)
			case *ReturnStmt:
				if s.Val != nil {
					walkExpr(s.Val)
				}
			case *ExprStmt:
				walkExpr(s.X)
			}
		}
	}
	for _, fn := range prog.Funcs {
		walkStmts(fn.Body)
	}
	return out
}
