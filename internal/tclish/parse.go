// Package tclish implements a miniature Tcl-like command language.
//
// The paper configures and controls every executive "from a Tcl script
// that resides on the primary host ... because it is the I2O recommended
// way for configuration and control" (§4).  tclish reproduces the subset
// that cluster control scripts need: commands, variables with $
// substitution, [bracket] command substitution, {brace} quoting, "double
// quotes", comments, expressions, control flow (if/while/foreach), and
// user procedures.  Cluster-specific commands (configure, plug, enable,
// param, ...) are registered by package cluster on top of this core.
package tclish

import (
	"errors"
	"fmt"
	"strings"
)

// Parse errors.
var (
	// ErrUnbalanced reports an unterminated brace, bracket or quote.
	ErrUnbalanced = errors.New("tclish: unbalanced delimiter")

	// ErrBadSubst reports a malformed $ substitution.
	ErrBadSubst = errors.New("tclish: bad variable substitution")
)

// parser walks one script.
type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }

// skipBlank consumes spaces and tabs (not newlines: those terminate
// commands).
func (p *parser) skipBlank() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r':
			p.pos++
		case '\\':
			// A backslash-newline is a line continuation.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.pos += 2
				continue
			}
			return
		default:
			return
		}
	}
}

// skipCommandSeparators consumes newlines, semicolons, blanks and
// comments between commands.
func (p *parser) skipCommandSeparators() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n', ';':
			p.pos++
		case '#':
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
		case '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.pos += 2
				continue
			}
			return
		default:
			return
		}
	}
}

// atCommandEnd reports whether the current position terminates a command.
func (p *parser) atCommandEnd() bool {
	return p.eof() || p.peek() == '\n' || p.peek() == ';'
}

// word is one raw command word plus how it was quoted (braced words are
// exempt from substitution).
type word struct {
	text   string
	braced bool
}

// nextWord parses one word.  Quoted and bare words keep their raw text;
// substitution happens at evaluation time against interpreter state.
func (p *parser) nextWord() (word, error) {
	switch p.peek() {
	case '{':
		text, err := p.readBraced()
		return word{text: text, braced: true}, err
	case '"':
		text, err := p.readQuoted()
		return word{text: text}, err
	default:
		return word{text: p.readBare()}, nil
	}
}

// readBraced consumes a balanced {...} block and returns its inside.
func (p *parser) readBraced() (string, error) {
	start := p.pos
	depth := 0
	for !p.eof() {
		switch p.peek() {
		case '\\':
			p.pos++ // skip the escaped character too
			if !p.eof() {
				p.pos++
			}
			continue
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				inner := p.src[start+1 : p.pos]
				p.pos++
				return inner, nil
			}
		}
		p.pos++
	}
	return "", fmt.Errorf("%w: brace opened at offset %d", ErrUnbalanced, start)
}

// readQuoted consumes a "..." word, returning the raw inside (with escapes
// and substitutions untouched; they apply at eval time).
func (p *parser) readQuoted() (string, error) {
	start := p.pos
	p.pos++ // opening quote
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '\\':
			b.WriteByte(c)
			p.pos++
			if !p.eof() {
				b.WriteByte(p.peek())
				p.pos++
			}
			continue
		case '"':
			p.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return "", fmt.Errorf("%w: quote opened at offset %d", ErrUnbalanced, start)
}

// readBare consumes an unquoted word, keeping bracket scripts intact.
func (p *parser) readBare() string {
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case ' ', '\t', '\r', '\n', ';':
			return b.String()
		case '[':
			depth := 0
			for !p.eof() {
				c := p.peek()
				b.WriteByte(c)
				if c == '\\' {
					p.pos++
					if !p.eof() {
						b.WriteByte(p.peek())
						p.pos++
					}
					continue
				}
				if c == '[' {
					depth++
				}
				if c == ']' {
					depth--
					if depth == 0 {
						p.pos++
						break
					}
				}
				p.pos++
			}
			continue
		case '\\':
			b.WriteByte(c)
			p.pos++
			if !p.eof() {
				b.WriteByte(p.peek())
				p.pos++
			}
			continue
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return b.String()
}

// SplitList splits a Tcl list into elements.  List syntax is not command
// syntax: elements are separated by whitespace, newlines included; braces
// and double quotes group; backslash sequences are resolved outside
// braces; and ';', '[', '$' and '#' are ordinary characters — a list has
// no command separators, so `llength {a;b}` is 1.  Used by foreach,
// lindex, llength, proc parameters and the cluster commands.
func SplitList(list string) ([]string, error) {
	p := &parser{src: list}
	var out []string
	for {
		for !p.eof() && isListSpace(p.peek()) {
			p.pos++
		}
		if p.eof() {
			return out, nil
		}
		start := p.pos
		elem, err := p.listElement()
		if err != nil {
			return nil, err
		}
		if p.pos == start {
			// Every element consumes input; anything else would loop
			// forever appending empty elements.
			return nil, fmt.Errorf("tclish: list element at offset %d consumed no input", start)
		}
		out = append(out, elem)
	}
}

func isListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// listElement reads one list element: a braced element verbatim, or a
// quoted or bare one with its backslash sequences resolved.
func (p *parser) listElement() (string, error) {
	if p.peek() == '{' {
		return p.readBraced()
	}
	quoted := p.peek() == '"'
	start := p.pos
	if quoted {
		p.pos++
	}
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch {
		case quoted && c == '"':
			p.pos++
			return b.String(), nil
		case !quoted && isListSpace(c):
			return b.String(), nil
		case c == '\\' && p.pos+1 < len(p.src):
			b.WriteByte(unescape(p.src[p.pos+1]))
			p.pos += 2
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	if quoted {
		return "", fmt.Errorf("%w: quote opened at offset %d", ErrUnbalanced, start)
	}
	return b.String(), nil
}

// QuoteListElement renders one element so SplitList reads it back as a
// single element.  Like Tcl, it braces an element that needs quoting when
// the braces inside it balance, and backslash-escapes it otherwise.
func QuoteListElement(s string) string {
	if s == "" {
		return "{}"
	}
	if !strings.ContainsAny(s, " \t\r\n\v\f;{}\"[]$\\") {
		return s
	}
	if braceable(s) {
		return "{" + s + "}"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case ' ', '\v', '\f', ';', '{', '}', '"', '[', ']', '$', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// braceable reports whether readBraced reads "{" + s + "}" back as s: the
// braces in s balance and no backslash escapes the closing brace.
func braceable(s string) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i == len(s) {
				return false
			}
		case '{':
			depth++
		case '}':
			if depth--; depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

// JoinList renders elements as a Tcl list.
func JoinList(elems []string) string {
	quoted := make([]string, len(elems))
	for i, e := range elems {
		quoted[i] = QuoteListElement(e)
	}
	return strings.Join(quoted, " ")
}
