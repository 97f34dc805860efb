package minicuda

// Structural content hashing for function-granular incremental analysis.
// A hash is the SHA-256 of what the MCPG encoder (codec.go) writes for the
// thing hashed, so the encoder is the one place that says which fields of
// a resolved node matter: resolved types, symbol layout (slots, arena
// offsets) and full source tokens. Positions are part of a token, so a
// cached diagnostic (which embeds "line:col" in its Pos and its message)
// is verbatim-valid whenever the hash matches. A node kind the encoder
// does not know panics here exactly as it does in EncodeProgram.

import (
	"crypto/sha256"
	"encoding/hex"
)

// sum hashes the tables interned so far followed by the tree bytes.
func (e *progEncoder) sum() string {
	h := sha256.New()
	h.Write(e.appendTables(nil))
	h.Write(e.tree)
	return hex.EncodeToString(h.Sum(nil))
}

// StructuralHash returns a stable content hash of a resolved function:
// identical source (including position) hashes identically across
// compiles and across an encode/decode round trip; any edit to the
// function's text, layout, or resolved types changes the hash. Callees
// are identified by name only (the encoder has no function table here),
// their bodies are NOT included — combine with the callees' own hashes to
// key interprocedural results.
func (f *Function) StructuralHash() string {
	e := newProgEncoder()
	e.function(f)
	return e.sum()
}

// PreludeHash hashes the program-level context a function analysis can
// observe besides its own body and callees: the dialect and the layout
// of file-scope (__constant__) globals.
func (p *Program) PreludeHash() string {
	e := newProgEncoder()
	e.u(uint64(p.Dialect))
	e.globals(p.Globals)
	return e.sum()
}
