package rex

import (
	"math/rand"
	"strings"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/nfa"
	"relive/internal/word"
)

func accepts(t *testing.T, a *nfa.NFA, ab *alphabet.Alphabet, names ...string) bool {
	t.Helper()
	return a.Accepts(word.FromNames(ab, names...))
}

func TestBasicExpressions(t *testing.T) {
	ab := alphabet.New()
	tests := []struct {
		expr   string
		accept [][]string
		reject [][]string
	}{
		{
			expr:   "a b",
			accept: [][]string{{"a", "b"}},
			reject: [][]string{{}, {"a"}, {"b", "a"}, {"a", "b", "a"}},
		},
		{
			expr:   "a | b",
			accept: [][]string{{"a"}, {"b"}},
			reject: [][]string{{}, {"a", "b"}},
		},
		{
			expr:   "a *",
			accept: [][]string{{}, {"a"}, {"a", "a", "a"}},
			reject: [][]string{{"b"}, {"a", "b"}},
		},
		{
			expr:   "(a b) +",
			accept: [][]string{{"a", "b"}, {"a", "b", "a", "b"}},
			reject: [][]string{{}, {"a"}, {"a", "b", "a"}},
		},
		{
			expr:   "a ? b",
			accept: [][]string{{"b"}, {"a", "b"}},
			reject: [][]string{{}, {"a"}, {"a", "a", "b"}},
		},
		{
			expr:   "ε | a",
			accept: [][]string{{}, {"a"}},
			reject: [][]string{{"a", "a"}},
		},
		{
			expr:   "request (result | reject) *",
			accept: [][]string{{"request"}, {"request", "result", "reject"}},
			reject: [][]string{{}, {"result"}},
		},
	}
	for _, tc := range tests {
		e, err := Parse(ab, tc.expr)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.expr, err)
			continue
		}
		a := e.NFA()
		for _, w := range tc.accept {
			if !accepts(t, a, ab, w...) {
				t.Errorf("%q rejects %v", tc.expr, w)
			}
		}
		for _, w := range tc.reject {
			if accepts(t, a, ab, w...) {
				t.Errorf("%q accepts %v", tc.expr, w)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	ab := alphabet.New()
	for _, in := range []string{"", "(", "a )", "| a", "* a", "a £"} {
		if _, err := Parse(ab, in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestPrefixClosure(t *testing.T) {
	ab := alphabet.New()
	e := MustParse(ab, "(request (result | reject)) *")
	p := e.PrefixClosureNFA()
	if ok, w := p.IsPrefixClosed(); !ok {
		t.Fatalf("prefix closure not prefix-closed, witness %v", w)
	}
	if !accepts(t, p, ab, "request") {
		t.Error("pre(L) rejects the proper prefix request")
	}
	if accepts(t, p, ab, "result") {
		t.Error("pre(L) accepts a non-prefix")
	}
}

// TestQuickAgainstReferenceMatcher cross-checks the Thompson NFA against
// a direct recursive matcher on random expressions and words.
func TestQuickAgainstReferenceMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	names := []string{"a", "b"}
	ab := alphabet.FromNames(names...)
	for trial := 0; trial < 80; trial++ {
		text := randomExpr(rng, 3)
		e, err := Parse(ab, text)
		if err != nil {
			t.Fatalf("generated expression %q failed to parse: %v", text, err)
		}
		a := e.NFA()
		for i := 0; i < 30; i++ {
			w := make([]string, rng.Intn(6))
			for j := range w {
				w[j] = names[rng.Intn(len(names))]
			}
			got := accepts(t, a, ab, w...)
			want := refMatch(e.root, w)
			if got != want {
				t.Fatalf("trial %d: %q on %v: NFA=%v ref=%v", trial, text, w, got, want)
			}
		}
	}
}

// randomExpr generates a random expression string.
func randomExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Float64() < 0.3 {
		return []string{"a", "b", "ε"}[rng.Intn(3)]
	}
	switch rng.Intn(5) {
	case 0:
		return "( " + randomExpr(rng, depth-1) + " " + randomExpr(rng, depth-1) + " )"
	case 1:
		return "( " + randomExpr(rng, depth-1) + " | " + randomExpr(rng, depth-1) + " )"
	case 2:
		return "( " + randomExpr(rng, depth-1) + " ) *"
	case 3:
		return "( " + randomExpr(rng, depth-1) + " ) +"
	default:
		return "( " + randomExpr(rng, depth-1) + " ) ?"
	}
}

// refMatch is a straightforward (exponential) reference matcher working
// on name slices. Symbol names rely on the test alphabet interning
// order (FromNames("a", "b") gives a=1, b=2).
func refMatch(n node, w []string) bool {
	switch v := n.(type) {
	case symNode:
		if len(w) != 1 {
			return false
		}
		return w[0] == []string{"", "a", "b"}[int(v.sym)]
	case epsNode:
		return len(w) == 0
	case concatNode:
		return concatMatch(v.parts, w)
	case altNode:
		for _, p := range v.parts {
			if refMatch(p, w) {
				return true
			}
		}
		return false
	case starNode:
		if len(w) == 0 {
			return true
		}
		for split := 1; split <= len(w); split++ {
			if refMatch(v.sub, w[:split]) && refMatch(starNode{sub: v.sub}, w[split:]) {
				return true
			}
		}
		return false
	case plusNode:
		return refMatch(concatNode{parts: []node{v.sub, starNode{sub: v.sub}}}, w)
	case optNode:
		return len(w) == 0 || refMatch(v.sub, w)
	}
	return false
}

func concatMatch(parts []node, w []string) bool {
	if len(parts) == 0 {
		return len(w) == 0
	}
	if len(parts) == 1 {
		return refMatch(parts[0], w)
	}
	for split := 0; split <= len(w); split++ {
		if refMatch(parts[0], w[:split]) && concatMatch(parts[1:], w[split:]) {
			return true
		}
	}
	return false
}

func TestLexerHandlesPunctuationTightly(t *testing.T) {
	ab := alphabet.New()
	e, err := Parse(ab, "a(b|c)*")
	if err != nil {
		t.Fatal(err)
	}
	a := e.NFA()
	if !accepts(t, a, ab, "a", "b", "c", "b") {
		t.Error("tight syntax a(b|c)* rejects abcb")
	}
	if got := strings.Count("a(b|c)*", "("); got != 1 {
		t.Fatal("sanity")
	}
}

// MustParse is Parse panicking on error, for constant expressions.
func MustParse(ab *alphabet.Alphabet, text string) *Expr {
	e, err := Parse(ab, text)
	if err != nil {
		panic(err)
	}
	return e
}
