package workload

import (
	"testing"

	"confide/internal/ccl"
)

// The token uses no VM-specific builtin, so both backends compile it.
func TestTokenCompiles(t *testing.T) {
	if _, err := ccl.CompileCVM(TokenSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := ccl.CompileEVM(TokenSrc); err != nil {
		t.Fatal(err)
	}
}
