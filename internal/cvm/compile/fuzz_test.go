package compile

import (
	"testing"

	"confide/internal/cvm"
)

// progGen builds a structurally-valid program from fuzzer bytes: a height
// tracker keeps the operand stack consistent so most generated programs
// pass the deploy gate, while raw fuzzer int64s flow into addresses,
// constants and divisors so traps (bounds, div-by-zero, depth) and the
// out-of-gas boundary are all reachable.
type progGen struct {
	data []byte
	pos  int
	b    *cvm.FuncBuilder
	h    int
}

func (g *progGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	v := g.data[g.pos]
	g.pos++
	return v
}

func (g *progGen) i64() int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(g.byte())
	}
	return v
}

// emit consumes fuzz bytes until they run out, keeping g.h in sync with
// the emitted code's stack height.
func (g *progGen) emit() {
	b := g.b
	for g.pos < len(g.data) {
		switch g.byte() % 26 {
		case 0:
			b.Const(g.i64())
			g.h++
		case 1:
			b.Const(int64(int8(g.byte()))) // small constant: folding fodder
			g.h++
		case 2:
			b.GetLocal(int(g.byte()) % 4)
			g.h++
		case 3:
			if g.h >= 1 {
				b.SetLocal(int(g.byte()) % 4)
				g.h--
			}
		case 4:
			if g.h >= 1 {
				b.TeeLocal(int(g.byte()) % 4)
			}
		case 5:
			if g.h >= 2 {
				ops := []cvm.Op{cvm.OpI64Add, cvm.OpI64Sub, cvm.OpI64Mul, cvm.OpI64And,
					cvm.OpI64Or, cvm.OpI64Xor, cvm.OpI64Shl, cvm.OpI64ShrS, cvm.OpI64ShrU}
				b.Op(ops[int(g.byte())%len(ops)])
				g.h--
			}
		case 6:
			if g.h >= 2 {
				ops := []cvm.Op{cvm.OpI64DivS, cvm.OpI64DivU, cvm.OpI64RemS, cvm.OpI64RemU}
				b.Op(ops[int(g.byte())%len(ops)])
				g.h--
			}
		case 7:
			if g.h >= 2 {
				ops := []cvm.Op{cvm.OpI64Eq, cvm.OpI64Ne, cvm.OpI64LtS, cvm.OpI64LtU,
					cvm.OpI64GtS, cvm.OpI64GtU, cvm.OpI64LeS, cvm.OpI64LeU, cvm.OpI64GeS, cvm.OpI64GeU}
				b.Op(ops[int(g.byte())%len(ops)])
				g.h--
			}
		case 8:
			if g.h >= 1 {
				b.Op(cvm.OpI64Eqz)
			}
		case 9:
			if g.h >= 1 {
				b.Op(cvm.OpDrop)
				g.h--
			}
		case 10:
			if g.h >= 3 {
				b.Op(cvm.OpSelect)
				g.h -= 2
			}
		case 11: // load from a mostly-valid address
			b.Const(int64(g.byte())*8).OpImm(cvm.OpI64Load, int64(g.byte()%16))
			g.h++
		case 12: // load from a raw (often-trapping) address
			b.Const(g.i64()).OpImm(cvm.OpI64Load, 0)
			g.h++
		case 13:
			if g.h >= 1 {
				b.Const(int64(g.byte())*8).OpImm(cvm.OpLocalSet, 3) // stash addr
				g.h--
				b.GetLocal(3).Const(0).Op(cvm.OpI64Add) // churn
				g.h++
				b.Op(cvm.OpDrop)
				g.h--
			}
		case 14:
			if g.h >= 2 {
				b.OpImm(cvm.OpI64Store, int64(g.byte()%16))
				g.h -= 2
			}
		case 15:
			b.Const(int64(g.byte())).OpImm(cvm.OpI64Load8U, 0)
			g.h++
		case 16:
			if g.h >= 2 {
				b.OpImm(cvm.OpI64Store8, 0)
				g.h -= 2
			}
		case 17:
			b.Op(cvm.OpMemorySize)
			g.h++
		case 18:
			if g.h >= 1 {
				b.Op(cvm.OpMemoryGrow)
			}
		case 19:
			if g.h >= 3 {
				if g.byte()%2 == 0 {
					b.Op(cvm.OpMemoryCopy)
				} else {
					b.Op(cvm.OpMemoryFill)
				}
				g.h -= 3
			}
		case 20: // canned counted loop: local3 = k; body; dec; br_if
			k := int64(g.byte()%7) + 1
			top := b.NewLabel()
			b.Const(k).SetLocal(3)
			b.Bind(top)
			b.GetLocal(0).Const(1).Op(cvm.OpI64Add).SetLocal(0) // fusion bait
			b.GetLocal(3).Const(1).Op(cvm.OpI64Sub).TeeLocal(3).Const(0).Op(cvm.OpI64Ne).BrIf(top)
		case 21: // canned if-skip over a height-neutral body
			if g.h >= 1 {
				skip := b.NewLabel()
				b.BrIf(skip)
				g.h--
				b.GetLocal(1).Const(int64(g.byte())).Op(cvm.OpI64Xor).SetLocal(1)
				b.Bind(skip)
			}
		case 22: // host calls with canned, in-range argument shapes
			switch g.byte() % 6 {
			case 0:
				b.Host(cvm.HostInputSize)
				g.h++
			case 1:
				b.Const(0).Const(0).Const(16).Host(cvm.HostInputRead)
				g.h++
			case 2:
				b.Const(int64(g.byte() % 64)).Const(8).Const(128).Const(64).Host(cvm.HostStorageGet)
				g.h++
			case 3:
				b.Const(int64(g.byte() % 64)).Const(8).Const(200).Const(int64(g.byte() % 32)).Host(cvm.HostStorageSet)
			case 4:
				b.Const(0).Const(int64(g.byte() % 32)).Const(256).Host(cvm.HostSha256)
			case 5:
				b.Const(0).Const(8).Host(cvm.HostLog)
			}
		case 23: // call the helper function (may recurse to the depth trap)
			b.Const(int64(int8(g.byte()))).Call(1)
			g.h++
		case 24:
			if g.h >= 1 && g.byte()%8 == 0 {
				b.Op(cvm.OpReturn)
				// Unreachable continuation; terminate generation here so the
				// dataflow stays consistent.
				g.pos = len(g.data)
			}
		case 25:
			if g.byte()%16 == 0 {
				b.Op(cvm.OpUnreachable)
				g.pos = len(g.data)
			}
		}
	}
}

// genModule builds the two-function fuzz module: entry (2 params, 2 extra
// locals, 1 result) generated from data, and a helper f(n) that recurses
// n times with a divide sprinkled in (hitting div-by-zero and call-depth
// traps for fuzzer-chosen inputs).
func genModule(data []byte) (*cvm.Module, error) {
	helper := cvm.NewFuncBuilder(1, 0, 1)
	done := helper.NewLabel()
	helper.GetLocal(0).Const(0).Op(cvm.OpI64LeS).BrIf(done)
	helper.GetLocal(0).Const(1).Op(cvm.OpI64Sub).Call(1).
		Const(100).GetLocal(0).Op(cvm.OpI64DivS).Op(cvm.OpI64Add).Op(cvm.OpReturn)
	helper.Bind(done)
	helper.Const(1).Op(cvm.OpReturn)

	g := &progGen{data: data, b: cvm.NewFuncBuilder(2, 2, 1)}
	g.emit()
	if g.h == 0 {
		g.b.GetLocal(0)
		g.h++
	}
	g.b.Op(cvm.OpReturn)
	entry, err := g.b.Finish()
	if err != nil {
		return nil, err
	}
	hf, err := helper.Finish()
	if err != nil {
		return nil, err
	}
	return &cvm.Module{MemPages: 1, Funcs: []cvm.Func{entry, hf}}, nil
}

// FuzzCompiledVsInterp is the differential-determinism fuzz target the
// tentpole's acceptance hinges on: for every generated program and every
// gas limit, compiled execution must match the interpreter in result,
// error string, trap-ness, out-of-gas-ness, gas consumed, host-call event
// sequence, storage writes and output.
func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{}, int64(1), int64(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, int64(-1), int64(7))
	f.Add([]byte{20, 22, 1, 22, 2, 23, 5, 6, 7, 11, 14, 12}, int64(1000), int64(0))
	f.Add([]byte{23, 120, 23, 200, 25, 15, 21, 9, 10, 0, 255, 255, 255, 255, 255, 255, 255, 255}, int64(3), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, a1, a2 int64) {
		if len(data) > 512 {
			t.Skip()
		}
		m, err := genModule(data)
		if err != nil {
			t.Skip()
		}
		p, err := cvm.LoadProgram(m.Encode(), cvm.BuildOptions{Fuse: true})
		if err != nil {
			t.Skip()
		}
		if err := cvm.AnalyzeProgram(p); err != nil {
			t.Skip() // deploy gate would reject; neither tier ever runs it
		}
		u, err := Compile(p)
		if err != nil {
			if Reason(err) == "" {
				t.Fatalf("non-decline compile failure: %v", err)
			}
			t.Skip() // declined: interpreter-only program, no parity to check
		}
		input := []byte("fuzz-input-bytes")
		setup := func(e *recEnv) { e.storage[string([]byte{0, 0, 0, 0, 0, 0, 0, 0})] = []byte("seeded") }
		for _, gas := range []uint64{30, 200, 5000, 0} {
			iOut, cOut := runBoth(t, p, u, gas, input, setup, a1, a2)
			if iOut != cOut {
				t.Fatalf("divergence at gas %d:\ninterp:   %+v\ncompiled: %+v", gas, iOut, cOut)
			}
		}
	})
}
