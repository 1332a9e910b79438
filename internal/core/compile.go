package core

import (
	"confide/internal/cvm"
	"confide/internal/cvm/compile"
)

// compileDeclined is the cache tombstone for programs the compiler refused:
// it pins the decision to the code-cache entry so the decline is decided
// once per contract hash (compile.Compile counts the reason).
type compileDeclined struct{}

// compileArtifact is the CodeCache build hook: lower the decoded program to
// a compiled Unit, or record why it stays interpreter-only.
func compileArtifact(p *cvm.Program) any {
	u, err := compile.Compile(p)
	if err != nil {
		return compileDeclined{}
	}
	return u
}
