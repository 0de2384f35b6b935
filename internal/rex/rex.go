// Package rex implements regular expressions over action alphabets,
// compiled to NFAs by the Thompson construction. Expressions give the
// test suite, the examples and downstream users a concise way to write
// the prefix-closed languages and ω-language building blocks the paper
// works with (e.g. pre((request·(result|reject))*) and lim of it).
//
// Syntax (tokens are whitespace-separated, so multi-letter action names
// work naturally):
//
//	request (result | reject) *      concatenation, alternation, star
//	lock free ?                      optional
//	(request result) +               one-or-more
//	ε                                the empty word (also "eps")
//
// Postfix operators bind to the preceding atom or group; alternation
// binds loosest.
package rex

import (
	"fmt"
	"strings"
	"unicode"

	"relive/internal/alphabet"
	"relive/internal/nfa"
)

// Expr is a parsed regular expression.
type Expr struct {
	root node
	ab   *alphabet.Alphabet
}

type node interface{ isNode() }

type (
	symNode    struct{ sym alphabet.Symbol }
	epsNode    struct{}
	concatNode struct{ parts []node }
	altNode    struct{ parts []node }
	starNode   struct{ sub node }
	plusNode   struct{ sub node }
	optNode    struct{ sub node }
)

func (symNode) isNode()    {}
func (epsNode) isNode()    {}
func (concatNode) isNode() {}
func (altNode) isNode()    {}
func (starNode) isNode()   {}
func (plusNode) isNode()   {}
func (optNode) isNode()    {}

// Parse parses an expression, interning action names into ab.
func Parse(ab *alphabet.Alphabet, text string) (*Expr, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	p := &rexParser{ab: ab, toks: toks}
	root, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("rex: unexpected %q", p.toks[p.pos])
	}
	return &Expr{root: root, ab: ab}, nil
}

func lex(text string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsSpace(r):
			flush()
		case strings.ContainsRune("()|*+?", r):
			flush()
			toks = append(toks, string(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.':
			cur.WriteRune(r)
		default:
			return nil, fmt.Errorf("rex: unexpected character %q", r)
		}
	}
	flush()
	return toks, nil
}

type rexParser struct {
	ab   *alphabet.Alphabet
	toks []string
	pos  int
}

func (p *rexParser) peek() (string, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return "", false
}

func (p *rexParser) parseAlt() (node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	parts := []node{first}
	for {
		t, ok := p.peek()
		if !ok || t != "|" {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return altNode{parts: parts}, nil
}

func (p *rexParser) parseConcat() (node, error) {
	var parts []node
	for {
		t, ok := p.peek()
		if !ok || t == "|" || t == ")" {
			break
		}
		atom, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
	}
	switch len(parts) {
	case 0:
		return nil, fmt.Errorf("rex: empty expression")
	case 1:
		return parts[0], nil
	}
	return concatNode{parts: parts}, nil
}

func (p *rexParser) parsePostfix() (node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok {
			return atom, nil
		}
		switch t {
		case "*":
			p.pos++
			atom = starNode{sub: atom}
		case "+":
			p.pos++
			atom = plusNode{sub: atom}
		case "?":
			p.pos++
			atom = optNode{sub: atom}
		default:
			return atom, nil
		}
	}
}

func (p *rexParser) parseAtom() (node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("rex: unexpected end of expression")
	}
	switch t {
	case "(":
		p.pos++
		sub, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if t2, ok := p.peek(); !ok || t2 != ")" {
			return nil, fmt.Errorf("rex: missing closing parenthesis")
		}
		p.pos++
		return sub, nil
	case ")", "|", "*", "+", "?":
		return nil, fmt.Errorf("rex: unexpected %q", t)
	case alphabet.EpsilonName, "eps":
		p.pos++
		return epsNode{}, nil
	}
	p.pos++
	return symNode{sym: p.ab.Symbol(t)}, nil
}

// NFA compiles the expression to an NFA by the Thompson construction.
func (e *Expr) NFA() *nfa.NFA {
	a := nfa.New(e.ab)
	start, end := build(a, e.root)
	a.SetInitial(start)
	a.SetAccepting(end, true)
	return a
}

// build adds a fragment with a single entry and exit state.
func build(a *nfa.NFA, n node) (nfa.State, nfa.State) {
	switch v := n.(type) {
	case symNode:
		s := a.AddState(false)
		t := a.AddState(false)
		a.AddTransition(s, v.sym, t)
		return s, t
	case epsNode:
		s := a.AddState(false)
		t := a.AddState(false)
		a.AddTransition(s, alphabet.Epsilon, t)
		return s, t
	case concatNode:
		first, cur := build(a, v.parts[0])
		for _, part := range v.parts[1:] {
			ns, ne := build(a, part)
			a.AddTransition(cur, alphabet.Epsilon, ns)
			cur = ne
		}
		return first, cur
	case altNode:
		s := a.AddState(false)
		t := a.AddState(false)
		for _, part := range v.parts {
			ps, pe := build(a, part)
			a.AddTransition(s, alphabet.Epsilon, ps)
			a.AddTransition(pe, alphabet.Epsilon, t)
		}
		return s, t
	case starNode:
		s := a.AddState(false)
		t := a.AddState(false)
		ps, pe := build(a, v.sub)
		a.AddTransition(s, alphabet.Epsilon, ps)
		a.AddTransition(pe, alphabet.Epsilon, t)
		a.AddTransition(s, alphabet.Epsilon, t)
		a.AddTransition(pe, alphabet.Epsilon, ps)
		return s, t
	case plusNode:
		ps, pe := build(a, v.sub)
		a.AddTransition(pe, alphabet.Epsilon, ps)
		return ps, pe
	case optNode:
		s := a.AddState(false)
		t := a.AddState(false)
		ps, pe := build(a, v.sub)
		a.AddTransition(s, alphabet.Epsilon, ps)
		a.AddTransition(pe, alphabet.Epsilon, t)
		a.AddTransition(s, alphabet.Epsilon, t)
		return s, t
	}
	panic("rex: unknown node")
}

// PrefixClosureNFA compiles the expression and closes it under
// prefixes, yielding pre(L(e)) — the shape of system languages in the
// paper.
func (e *Expr) PrefixClosureNFA() *nfa.NFA {
	return e.NFA().PrefixLanguage()
}
