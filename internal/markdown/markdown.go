// Package markdown renders the Markdown subset of lab descriptions into
// HTML for the Description view, and keeps the repository's generated doc
// blocks. A description (§IV-E) is "a file in markdown format. This
// description can include any text, images, and external links".
//
// Supported: ATX headings, paragraphs, fenced code blocks, inline code,
// bold, italics, links, images, unordered and ordered lists, and
// blockquotes. Raw HTML in the source is escaped, not passed through.
package markdown

import (
	"fmt"
	"html"
	"regexp"
	"strings"
)

var (
	linkRe  = regexp.MustCompile(`\[([^\]]*)\]\(([^)\s]+)\)`)
	imageRe = regexp.MustCompile(`!\[([^\]]*)\]\(([^)\s]+)\)`)
	boldRe  = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	italRe  = regexp.MustCompile(`\*([^*]+)\*`)
	codeRe  = regexp.MustCompile("`([^`]*)`")
)

// Render converts markdown source to HTML.
func Render(src string) string {
	var out strings.Builder
	lines := strings.Split(src, "\n")
	i := 0
	var para []string

	flushPara := func() {
		if len(para) == 0 {
			return
		}
		out.WriteString("<p>")
		out.WriteString(renderInline(strings.Join(para, " ")))
		out.WriteString("</p>\n")
		para = nil
	}

	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			flushPara()
			i++
		case strings.HasPrefix(trimmed, "```"):
			flushPara()
			lang := strings.TrimSpace(strings.TrimPrefix(trimmed, "```"))
			i++
			var code []string
			for i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
				code = append(code, lines[i])
				i++
			}
			if i < len(lines) {
				i++ // closing fence
			}
			if lang != "" {
				fmt.Fprintf(&out, "<pre><code class=\"language-%s\">", html.EscapeString(lang))
			} else {
				out.WriteString("<pre><code>")
			}
			out.WriteString(html.EscapeString(strings.Join(code, "\n")))
			out.WriteString("</code></pre>\n")
		case strings.HasPrefix(trimmed, "#"):
			flushPara()
			level := 0
			for level < len(trimmed) && trimmed[level] == '#' && level < 6 {
				level++
			}
			text := strings.TrimSpace(trimmed[level:])
			fmt.Fprintf(&out, "<h%d>%s</h%d>\n", level, renderInline(text), level)
			i++
		case strings.HasPrefix(trimmed, "> "):
			flushPara()
			var quote []string
			for i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "> ") {
				quote = append(quote, strings.TrimPrefix(strings.TrimSpace(lines[i]), "> "))
				i++
			}
			out.WriteString("<blockquote><p>")
			out.WriteString(renderInline(strings.Join(quote, " ")))
			out.WriteString("</p></blockquote>\n")
		case strings.HasPrefix(trimmed, "* ") || strings.HasPrefix(trimmed, "- "):
			flushPara()
			out.WriteString("<ul>\n")
			for i < len(lines) {
				t := strings.TrimSpace(lines[i])
				if !strings.HasPrefix(t, "* ") && !strings.HasPrefix(t, "- ") {
					break
				}
				fmt.Fprintf(&out, "<li>%s</li>\n", renderInline(t[2:]))
				i++
			}
			out.WriteString("</ul>\n")
		case isOrderedItem(trimmed):
			flushPara()
			out.WriteString("<ol>\n")
			for i < len(lines) && isOrderedItem(strings.TrimSpace(lines[i])) {
				t := strings.TrimSpace(lines[i])
				dot := strings.Index(t, ". ")
				fmt.Fprintf(&out, "<li>%s</li>\n", renderInline(t[dot+2:]))
				i++
			}
			out.WriteString("</ol>\n")
		default:
			para = append(para, trimmed)
			i++
		}
	}
	flushPara()
	return out.String()
}

func isOrderedItem(s string) bool {
	dot := strings.Index(s, ". ")
	if dot <= 0 {
		return false
	}
	for _, c := range s[:dot] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// renderInline escapes HTML then applies inline markdown spans.
func renderInline(s string) string {
	// Protect code spans from further formatting by rendering them first
	// on the escaped text.
	s = html.EscapeString(s)
	s = codeRe.ReplaceAllString(s, "<code>$1</code>")
	s = imageRe.ReplaceAllString(s, `<img src="$2" alt="$1">`)
	s = linkRe.ReplaceAllString(s, `<a href="$2">$1</a>`)
	s = boldRe.ReplaceAllString(s, "<strong>$1</strong>")
	s = italRe.ReplaceAllString(s, "<em>$1</em>")
	return s
}
