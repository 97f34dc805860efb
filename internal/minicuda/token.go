// Package minicuda implements a compiler and interpreter for the subset of
// CUDA C (and, via a dialect switch, OpenCL C) that the WebGPU course labs
// use. It stands in for the nvcc/OpenCL toolchains on the paper's worker
// nodes: student-submitted kernel source is lexed, parsed, type checked,
// and executed thread-per-thread on the gpusim device, so compile errors,
// runtime faults, and performance behaviour all flow back through the
// platform exactly as they would with a real toolchain.
//
// Supported language: int/unsigned/float/bool/char scalar types, pointers,
// fixed-size (multi-dimensional) arrays, __global__/__device__ functions,
// __shared__ and __constant__ memory, control flow (if/else, for, while,
// do-while, break, continue, return), the CUDA builtin index variables,
// __syncthreads, atomics, and a math builtin library. The OpenCL dialect
// adds __kernel/__global/__local qualifiers and the get_global_id family.
package minicuda

import (
	"fmt"
	"strings"
)

// TokKind classifies a token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokIntLit
	TokFloatLit
	TokCharLit
	TokStringLit
	TokPunct
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokIntLit:
		return "integer literal"
	case TokFloatLit:
		return "float literal"
	case TokCharLit:
		return "char literal"
	case TokStringLit:
		return "string literal"
	case TokPunct:
		return "punctuation"
	}
	return "unknown"
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Pos renders the token position for diagnostics.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }

var keywords = map[string]bool{
	"void": true, "int": true, "unsigned": true, "float": true, "double": true,
	"bool": true, "char": true, "long": true, "short": true, "size_t": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "break": true, "continue": true, "switch": true,
	"case": true, "default": true, "goto": true,
	"const": true, "static": true, "inline": true, "extern": true,
	"struct": true, "union": true, "enum": true, "typedef": true, "sizeof": true,
	"true": true, "false": true,
	"__global__": true, "__device__": true, "__host__": true,
	"__shared__": true, "__constant__": true, "__restrict__": true,
	// OpenCL dialect keywords.
	"__kernel": true, "__global": true, "__local": true, "__private": true,
}

// CompileError is a positioned diagnostic, formatted the way the web UI
// shows compilation failures to students. The errors a hint can name
// also carry a Code and the Name they concern; the rest leave both empty.
type CompileError struct {
	Line int
	Col  int
	Msg  string
	Code string
	Name string
}

// Codes of the compile errors that carry one, and what Name holds.
const (
	CodeUndeclared   = "undeclared"    // the identifier or function
	CodeExpected     = "expected"      // the expected token's text
	CodeWrongDialect = "wrong-dialect" // the other dialect's builtin
	CodeDim3Member   = "dim3-member"   // the dim3 builtin used without .x/.y/.z
)

func (e *CompileError) Error() string {
	return fmt.Sprintf("%d:%d: error: %s", e.Line, e.Col, e.Msg)
}

func errAt(t Token, format string, args ...interface{}) error {
	return &CompileError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// errCode is errAt for an error with a code, about name. The name is
// copied: a token's text slices the source, which a cached compile error
// would otherwise keep alive.
func errCode(t Token, code, name, format string, args ...interface{}) error {
	return &CompileError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...), Code: code, Name: strings.Clone(name)}
}

// tokenBytes is the source bytes per token Lex reserves for. Preprocessed,
// the 15 lab references measure 2.6–4.2 bytes a token and their
// comment-heavy skeletons 4.4–9.2, so a dense program grows the slice once
// at most and a sparse one reserves under 3× the tokens it has.
const tokenBytes = 3

// Lex tokenizes source, stripping // and /* */ comments and preprocessor
// lines (#include, #define of simple constants is handled by Preprocess).
// Columns count bytes: the column of src[i] is i-lineStart+1.
func Lex(src string) ([]Token, error) {
	n := len(src)
	toks := make([]Token, 0, n/tokenBytes+1)
	line, lineStart := 1, 0
	// newlines accounts for the line breaks of src[from:to], a region
	// (block comment, literal) consumed in one step.
	newlines := func(from, to int) {
		for k := from; k < to; k++ {
			if src[k] == '\n' {
				line++
				lineStart = k + 1
			}
		}
	}
	errAtByte := func(i int, msg string) error {
		return &CompileError{Line: line, Col: i - lineStart + 1, Msg: msg}
	}
	for i := 0; i < n; {
		c := src[i]
		switch {
		case c == '\n':
			i++
			line++
			lineStart = i
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#' || c == '/' && i+1 < n && src[i+1] == '/':
			// A line comment, or a preprocessor directive (these reach the
			// lexer only if Preprocess was skipped): blank to end of line.
			if k := strings.IndexByte(src[i:], '\n'); k >= 0 {
				i += k
			} else {
				i = n
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			k := strings.Index(src[i+2:], "*/")
			if k < 0 {
				return nil, errAtByte(i, "unterminated block comment")
			}
			end := i + 2 + k + 2
			newlines(i, end)
			i = end
		case isIdentStart(c):
			j := i + 1
			for j < n && isIdentChar(src[j]) {
				j++
			}
			text := src[i:j]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: i - lineStart + 1})
			i = j
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			tok := lexNumber(src[i:], line, i-lineStart+1)
			toks = append(toks, tok)
			i += len(tok.Text)
		case c == '"' || c == '\'':
			// The literal runs to the next unescaped quote, line breaks
			// included; Text is what is between the quotes.
			j := i + 1
			for j < n && src[j] != c {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			kind, what := TokStringLit, "string"
			if c == '\'' {
				kind, what = TokCharLit, "character"
			}
			if j >= n {
				return nil, errAtByte(i, "unterminated "+what+" literal")
			}
			toks = append(toks, Token{Kind: kind, Text: src[i+1 : j], Line: line, Col: i - lineStart + 1})
			newlines(i, j)
			i = j + 1
		default:
			k := punctLen(src[i:])
			if k == 0 {
				return nil, errAtByte(i, fmt.Sprintf("unexpected character %q", c))
			}
			toks = append(toks, Token{Kind: TokPunct, Text: src[i : i+k], Line: line, Col: i - lineStart + 1})
			i += k
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: n - lineStart + 1})
	return toks, nil
}

// punctLen is the length of the punctuation token s starts with, longest
// match, or 0 if s[0] starts none.
func punctLen(s string) int {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch c := s[0]; c {
	case '<', '>': // < <= << <<=
		switch {
		case c1 == c && c2 == '=':
			return 3
		case c1 == c || c1 == '=':
			return 2
		}
		return 1
	case '.':
		if c1 == '.' && c2 == '.' {
			return 3
		}
		return 1
	case '+', '&', '|': // + += ++
		if c1 == c || c1 == '=' {
			return 2
		}
		return 1
	case '-': // - -= -- ->
		if c1 == '-' || c1 == '=' || c1 == '>' {
			return 2
		}
		return 1
	case '=', '!', '*', '/', '%', '^': // = ==
		if c1 == '=' {
			return 2
		}
		return 1
	case '~', '(', ')', '{', '}', '[', ']', ';', ',', '?', ':':
		return 1
	}
	return 0
}

// isIdentStart is ASCII on purpose, like isIdentChar: a byte of a
// multi-byte UTF-8 letter is an unexpected character, not an identifier.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func lexNumber(s string, line, col int) Token {
	j := 0
	n := len(s)
	isFloat := false
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		j = 2
		for j < n && isHexDigit(s[j]) {
			j++
		}
		for j < n && (s[j] == 'u' || s[j] == 'U' || s[j] == 'l' || s[j] == 'L') {
			j++
		}
		return Token{Kind: TokIntLit, Text: s[:j], Line: line, Col: col}
	}
	for j < n && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if j < n && s[j] == '.' {
		isFloat = true
		j++
		for j < n && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	if j < n && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		if k < n && (s[k] == '+' || s[k] == '-') {
			k++
		}
		if k < n && s[k] >= '0' && s[k] <= '9' {
			isFloat = true
			j = k
			for j < n && s[j] >= '0' && s[j] <= '9' {
				j++
			}
		}
	}
	if j < n && (s[j] == 'f' || s[j] == 'F') {
		isFloat = true
		j++
	}
	for j < n && (s[j] == 'u' || s[j] == 'U' || s[j] == 'l' || s[j] == 'L') {
		j++
	}
	kind := TokIntLit
	if isFloat {
		kind = TokFloatLit
	}
	return Token{Kind: kind, Text: s[:j], Line: line, Col: col}
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// StripComments removes // line comments and /* */ block comments,
// replacing them with spaces (newlines inside block comments are kept so
// line numbers survive). Used by the preprocessed-mode blacklist scanner
// and keyword grading, which must not match text inside comments (§III-D).
func StripComments(src string) string {
	var out strings.Builder
	out.Grow(len(src))
	i, n := 0, len(src)
	for i < n {
		switch {
		case src[i] == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case src[i] == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					out.WriteByte('\n')
				}
				i++
			}
			if i+1 < n {
				i += 2
			} else {
				i = n
			}
			out.WriteByte(' ')
		case src[i] == '"':
			out.WriteByte(src[i])
			i++
			for i < n && src[i] != '"' {
				if src[i] == '\\' && i+1 < n {
					out.WriteByte(src[i])
					i++
				}
				out.WriteByte(src[i])
				i++
			}
			if i < n {
				out.WriteByte('"')
				i++
			}
		default:
			out.WriteByte(src[i])
			i++
		}
	}
	return out.String()
}

// Preprocess implements the tiny subset of the C preprocessor the labs
// need: it strips #include lines, expands object-like #define NAME VALUE
// macros (no function-like macros), honours #if 0 / #endif blocks used to
// disable code, and removes comments. It returns the preprocessed source;
// the sandbox blacklist can be run before (raw mode) or after
// (preprocessed mode) this pass — the paper notes that scanning the raw
// text rejects blacklisted identifiers inside comments, which preprocessed
// scanning avoids.
func Preprocess(src string) (string, error) {
	macros := map[string]string{}
	var out strings.Builder
	skipDepth := 0
	for ln, rawLine := range strings.Split(src, "\n") {
		line := strings.TrimSpace(rawLine)
		switch {
		case strings.HasPrefix(line, "#if"):
			cond := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, "#ifdef"), "#if"))
			if skipDepth > 0 || cond == "0" {
				skipDepth++
			} else if strings.HasPrefix(line, "#ifdef") {
				if _, ok := macros[cond]; !ok {
					skipDepth++
				}
			}
			out.WriteByte('\n')
		case strings.HasPrefix(line, "#endif"):
			if skipDepth > 0 {
				skipDepth--
			}
			out.WriteByte('\n')
		case strings.HasPrefix(line, "#else"):
			// #else of an active #if 0 enables; of an active block disables.
			if skipDepth == 1 {
				skipDepth = 0
			} else if skipDepth == 0 {
				skipDepth = 1
			}
			out.WriteByte('\n')
		case skipDepth > 0:
			out.WriteByte('\n')
		case strings.HasPrefix(line, "#define"):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "#define"))
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) == 0 || parts[0] == "" {
				return "", &CompileError{Line: ln + 1, Col: 1, Msg: "malformed #define"}
			}
			if strings.Contains(parts[0], "(") {
				return "", &CompileError{Line: ln + 1, Col: 1, Msg: "function-like macros are not supported"}
			}
			val := ""
			if len(parts) == 2 {
				val = strings.TrimSpace(parts[1])
			}
			macros[parts[0]] = val
			out.WriteByte('\n')
		case strings.HasPrefix(line, "#include"), strings.HasPrefix(line, "#pragma"),
			strings.HasPrefix(line, "#undef"):
			out.WriteByte('\n')
		default:
			out.WriteString(expandMacros(rawLine, macros))
			out.WriteByte('\n')
		}
	}
	return out.String(), nil
}

// expandMacros substitutes object-like macros at identifier boundaries,
// one pass (no recursive expansion; course labs only use simple constants
// like #define TILE_WIDTH 16).
func expandMacros(line string, macros map[string]string) string {
	if len(macros) == 0 {
		return line
	}
	var out strings.Builder
	i := 0
	for i < len(line) {
		c := line[i]
		if isIdentStart(c) {
			j := i + 1
			for j < len(line) && isIdentChar(line[j]) {
				j++
			}
			word := line[i:j]
			if val, ok := macros[word]; ok {
				out.WriteString(val)
			} else {
				out.WriteString(word)
			}
			i = j
		} else {
			out.WriteByte(c)
			i++
		}
	}
	return out.String()
}
