package minicuda_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

// lexEdgeRows are the inputs the lexer's error paths and position
// bookkeeping turn on: every CompileError Lex can return, bytes ≥ 0x80 of
// every class, and line breaks inside each construct that may span them.
var lexEdgeRows = []string{
	"",
	"int a; /* oops\n never closed",
	"/*/ not closed either",
	"/**/ int a; /* two\nlines\n*/ int b; // to end of input",
	"x = \"never closed\n int c;",
	"x = \"ends in a backslash\\",
	"c = 'a",
	"c = '\\'' + '\\\\' + 'ab\ncd'; int after;",
	"s = \"a string\nover two lines\" ; int after = 1;",
	"int a = $;",
	"int a = @ + `;",
	"int caf\xc3\xa9 = 1;", // é: the lead byte is a Latin-1 letter, the hang
	"\xaa", "\xb5 = 1", "a \xba", "x\xff", "\xc0",
	"int a \x80 b", "int \xa9 c", "nul \x00 byte",
	"// caf\xc3\xa9 in a comment\nint a; /* \xc3\xa9 */ char *s = \"\xc3\xa9\"; char c = '\xe9';",
	"int\ta;\r\n\t\tfloat b;\r\n\r\n  /* c\r\n */ x\r\n",
	"#pragma once\nint a;\n#define N 4",
	"# \xc3\xa9\nint a;",
	"a<<=b>>=c...d->e++ --f <<< >>>= .. . .5 1..2 &&& ||| !== ^= ~x?y:z %= /= *= -= += -> - > = == =",
	"0x1Ful 42u 1.5f 2f 1e10 2.5e-3f .5 1e+ 1e 0x 09 1.f 1.e5 7L",
	"a/b / c /= d /",
	"x.y . z",
	"__global__ void k(float *a) { int café = 1; a[0] = 1; }",
	"#define N 4\n__global__ void k(float *a) { int café = N; a[0] = 1; }",
}

// lexSources is everything the lexer is compared over: the differential
// corpus, the lab references and skeletons, the example kernels, and the
// edge rows — each raw and, where it preprocesses, preprocessed (what
// Parse hands to Lex).
func lexSources(t testing.TB) []string {
	var srcs []string
	for _, c := range hashCorpus(t) {
		srcs = append(srcs, c.src)
	}
	for _, l := range labs.All() {
		srcs = append(srcs, l.Skeleton)
	}
	srcs = append(srcs, lexEdgeRows...)
	for _, src := range srcs {
		if pp, err := minicuda.Preprocess(src); err == nil {
			srcs = append(srcs, pp)
		}
	}
	return srcs
}

// requireLexMatchesReference fails unless Lex and the reference lexer
// agree on src: the same tokens (Kind, Text, Line, Col) or the same
// CompileError.
func requireLexMatchesReference(t testing.TB, src string) []minicuda.Token {
	t.Helper()
	got, gotErr := minicuda.Lex(src)
	want, wantErr := minicuda.LexReference(src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("Lex(%q) error = %v, reference %v", src, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("Lex(%q) = %d tokens, reference %d", src, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Lex(%q) token %d = %+v, reference %+v", src, i, got[i], want[i])
		}
	}
	return got
}

func TestLexMatchesReference(t *testing.T) {
	srcs := lexSources(t)
	failed := 0
	for _, src := range srcs {
		if _, err := minicuda.Lex(src); err != nil {
			failed++
		}
		if toks := requireLexMatchesReference(t, src); toks != nil {
			checkTokenPositions(t, src, toks)
		}
	}
	// Both sides of the comparison must have been exercised.
	if len(srcs) < 2000 || failed < 10 {
		t.Fatalf("%d sources, %d of them lex errors: corpus too small to mean anything", len(srcs), failed)
	}
}

// TestNonASCIILetterIsACompileError: a byte unicode.IsLetter takes for a
// letter (the lead byte of é) outside a comment or literal used to scan an
// empty identifier forever — in Lex, and in macro expansion once any
// #define preceded it, where an é inside a comment was enough.
func TestNonASCIILetterIsACompileError(t *testing.T) {
	for _, tc := range []struct {
		name, src, wantErr string
	}{
		{"identifier", "__global__ void k(float *a) { int café = 1; a[0] = 1; }",
			"1:38: error: unexpected character 'Ã'"},
		{"after a #define", "#define N 4\n__global__ void k(float *a) { int café = N; a[0] = 1; }",
			"2:38: error: unexpected character 'Ã'"},
		{"in a comment after a #define", "#define N 4\n// café\n__global__ void k(float *a) { a[0] = N; /* é */ }", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := minicuda.Compile(tc.src, minicuda.DialectCUDA)
				done <- err
			}()
			select {
			case err := <-done:
				var ce *minicuda.CompileError
				if tc.wantErr == "" && err != nil || tc.wantErr != "" && (!errors.As(err, &ce) || err.Error() != tc.wantErr) {
					t.Errorf("Compile = %v, want %q", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Compile did not return")
			}
		})
	}
}

// checkTokenPositions: positions never go backwards and every token's Text
// is the source at its position (between the quotes, for a literal).
func checkTokenPositions(t testing.TB, src string, toks []minicuda.Token) {
	t.Helper()
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	prev := 0
	for i, tk := range toks {
		if tk.Line < 1 || tk.Line > len(lineStart) || tk.Col < 1 {
			t.Fatalf("Lex(%q) token %d at %d:%d, outside the source", src, i, tk.Line, tk.Col)
		}
		off := lineStart[tk.Line-1] + tk.Col - 1
		if off < prev {
			t.Fatalf("Lex(%q) token %d at %d:%d is before its predecessor", src, i, tk.Line, tk.Col)
		}
		prev = off
		switch tk.Kind {
		case minicuda.TokEOF:
			if off != len(src) || i != len(toks)-1 {
				t.Fatalf("Lex(%q) EOF is token %d of %d at offset %d of %d", src, i, len(toks), off, len(src))
			}
			continue
		case minicuda.TokStringLit, minicuda.TokCharLit:
			off++
		}
		if !strings.HasPrefix(src[min(off, len(src)):], tk.Text) {
			t.Fatalf("Lex(%q) token %d %q is not the source at %d:%d", src, i, tk.Text, tk.Line, tk.Col)
		}
	}
}

func FuzzLex(f *testing.F) {
	for _, l := range labs.All() {
		f.Add(l.Reference)
	}
	for _, row := range lexEdgeRows {
		f.Add(row)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if toks := requireLexMatchesReference(t, src); toks != nil {
			checkTokenPositions(t, src, toks)
		}
	})
}

// FuzzPreprocess: Preprocess returns on any input, and what it returns
// lexes like the reference.
func FuzzPreprocess(f *testing.F) {
	for _, l := range labs.All() {
		f.Add(l.Reference)
	}
	for _, row := range lexEdgeRows {
		f.Add(row)
	}
	f.Add("#if 0\n#else\n#ifdef N\n#endif\n#define\n#define F(x) x\n#define é 1\né")
	f.Fuzz(func(t *testing.T, src string) {
		if pp, err := minicuda.Preprocess(src); err == nil {
			requireLexMatchesReference(t, pp)
		}
	})
}
