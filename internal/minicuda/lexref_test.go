package minicuda

import (
	"fmt"
	"strings"
	"unicode"
)

// lexReference is the lexer as it was before Lex was rewritten around a
// line-start index and a punctuation switch — a per-byte advance closure,
// strings.HasPrefix over the punctuation table — kept as the oracle Lex
// must equal token for token and error for error. One change: a byte that
// unicode.IsLetter takes for a letter but isIdentChar does not (0xAA, 0xB5,
// 0xBA, 0xC0–0xFF: the lead byte of any accented UTF-8 letter) scanned an
// empty identifier without advancing, forever; it is an unexpected
// character here, as in Lex.

// multi-character punctuation, longest first per leading byte.
var refPunctTable = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
}

func lexReference(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine, startCol := line, col
			advance(2)
			closed := false
			for i+1 < n {
				if src[i] == '*' && src[i+1] == '/' {
					advance(2)
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, &CompileError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		case c == '#':
			// Preprocessor directives reach the lexer only if Preprocess was
			// skipped; treat the rest of the line as blank.
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			startLine, startCol := line, col
			j := i
			for j < n && (isIdentChar(src[j])) {
				j++
			}
			if j == i {
				return nil, &CompileError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			text := src[i:j]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: startLine, Col: startCol})
			advance(j - i)
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			tok := lexNumber(src[i:], line, col)
			toks = append(toks, tok)
			advance(len(tok.Text))
		case c == '"':
			startLine, startCol := line, col
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n {
				return nil, &CompileError{Line: startLine, Col: startCol, Msg: "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokStringLit, Text: src[i+1 : j], Line: startLine, Col: startCol})
			advance(j - i + 1)
		case c == '\'':
			startLine, startCol := line, col
			j := i + 1
			for j < n && src[j] != '\'' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n {
				return nil, &CompileError{Line: startLine, Col: startCol, Msg: "unterminated character literal"}
			}
			toks = append(toks, Token{Kind: TokCharLit, Text: src[i+1 : j], Line: startLine, Col: startCol})
			advance(j - i + 1)
		default:
			matched := false
			for _, p := range refPunctTable {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line, Col: col})
					advance(len(p))
					matched = true
					break
				}
			}
			if !matched {
				return nil, &CompileError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}
