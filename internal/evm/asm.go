package evm

import (
	"encoding/binary"
	"fmt"
)

// Assembler builds EVM bytecode with symbolic jump labels. Every label
// reference assembles to PUSH4 <target>, so instruction offsets are stable
// before targets are known; Bind patches them in place.
type Assembler struct {
	code    []byte
	labels  []int    // label id → byte offset of JUMPDEST, -1 if unbound
	patches [][2]int // (byte offset of the 4-byte immediate, label id)
}

// Label identifies a jump target.
type Label int

// NewAssembler creates an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// NewLabel allocates an unbound label.
func (a *Assembler) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind emits a JUMPDEST here and resolves the label to it.
func (a *Assembler) Bind(l Label) *Assembler {
	if a.labels[l] != -1 {
		panic("evm: label bound twice")
	}
	a.labels[l] = len(a.code)
	a.code = append(a.code, JUMPDEST)
	return a
}

// Op appends raw opcodes.
func (a *Assembler) Op(ops ...byte) *Assembler {
	a.code = append(a.code, ops...)
	return a
}

// Push emits the smallest PUSH for v.
func (a *Assembler) Push(v uint64) *Assembler {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	start := 0
	for start < 7 && buf[start] == 0 {
		start++
	}
	n := 8 - start
	a.code = append(a.code, PUSH1+byte(n-1))
	a.code = append(a.code, buf[start:]...)
	return a
}

// PushBytes emits PUSHn for up to 32 literal bytes.
func (a *Assembler) PushBytes(b []byte) *Assembler {
	if len(b) == 0 || len(b) > 32 {
		panic(fmt.Sprintf("evm: PushBytes length %d", len(b)))
	}
	a.code = append(a.code, PUSH1+byte(len(b)-1))
	a.code = append(a.code, b...)
	return a
}

// PushLabel emits PUSH4 with the label's offset (patched at Assemble).
func (a *Assembler) PushLabel(l Label) *Assembler {
	a.code = append(a.code, PUSH1+3)
	a.patches = append(a.patches, [2]int{len(a.code), int(l)})
	a.code = append(a.code, 0, 0, 0, 0)
	return a
}

// Jump emits an unconditional jump to l.
func (a *Assembler) Jump(l Label) *Assembler {
	return a.PushLabel(l).Op(JUMP)
}

// JumpIf pops a condition and jumps to l when it is non-zero.
func (a *Assembler) JumpIf(l Label) *Assembler {
	return a.PushLabel(l).Op(JUMPI)
}

// Dup emits DUPn (1-based: Dup(1) duplicates the top).
func (a *Assembler) Dup(n int) *Assembler {
	if n < 1 || n > 16 {
		panic("evm: dup depth")
	}
	return a.Op(DUP1 + byte(n-1))
}

// Swap emits SWAPn.
func (a *Assembler) Swap(n int) *Assembler {
	if n < 1 || n > 16 {
		panic("evm: swap depth")
	}
	return a.Op(SWAP1 + byte(n-1))
}

// Assemble patches labels and returns the bytecode.
func (a *Assembler) Assemble() ([]byte, error) {
	for _, p := range a.patches {
		off, label := p[0], p[1]
		target := a.labels[label]
		if target == -1 {
			return nil, fmt.Errorf("evm: label %d never bound", label)
		}
		binary.BigEndian.PutUint32(a.code[off:], uint32(target))
	}
	return a.code, nil
}
