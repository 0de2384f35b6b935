package ts

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// loopSystem returns a two-state system: s0 -a-> s1 -b-> s0.
func loopSystem() *System {
	ab := alphabet.FromNames("a", "b")
	s := New(ab)
	s.AddEdge("s0", "a", "s1")
	s.AddEdge("s1", "b", "s0")
	init, _ := s.LookupState("s0")
	s.SetInitial(init)
	return s
}

func TestBasics(t *testing.T) {
	s := loopSystem()
	if s.NumStates() != 2 {
		t.Fatalf("NumStates = %d", s.NumStates())
	}
	s0, _ := s.LookupState("s0")
	if s.StateName(s0) != "s0" {
		t.Error("StateName mismatch")
	}
	sa, _ := s.Alphabet().Lookup("a")
	if en := s.Enabled(s0); len(en) != 1 || en[0] != sa {
		t.Errorf("Enabled(s0) = %v", en)
	}
	if got := len(s.Edges()); got != 2 {
		t.Errorf("Edges = %d, want 2", got)
	}
	// Duplicate AddState returns the same state.
	if st := s.AddState("s0"); st != s0 {
		t.Error("AddState not idempotent on names")
	}
}

// TestCSRFollowsEdges: the CSR form lists each state's transitions in
// Edges order, states without transitions included.
func TestCSRFollowsEdges(t *testing.T) {
	s, err := ParseString("init x\nx b x\nx a y\ny a dead\nx a z\nz c x\n")
	if err != nil {
		t.Fatal(err)
	}
	g, syms := s.CSR()
	if g.NumVertices() != s.NumStates() {
		t.Fatalf("CSR has %d vertices, want %d", g.NumVertices(), s.NumStates())
	}
	var got []Edge
	for v := 0; v < g.NumVertices(); v++ {
		for id := g.Off[v]; id < g.Off[v+1]; id++ {
			got = append(got, Edge{From: State(v), Sym: syms[id], To: State(g.Dst[id])})
		}
	}
	if want := s.Edges(); !slices.Equal(got, want) {
		t.Fatalf("CSR edges = %v, want %v", got, want)
	}
}

func TestAcceptsWord(t *testing.T) {
	s := loopSystem()
	ab := s.Alphabet()
	for _, tc := range []struct {
		w    []string
		want bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"a", "b", "a"}, true},
		{[]string{"b"}, false},
		{[]string{"a", "a"}, false},
	} {
		if got := s.AcceptsWord(word.FromNames(ab, tc.w...)); got != tc.want {
			t.Errorf("AcceptsWord(%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestNFAAndBehaviors(t *testing.T) {
	s := loopSystem()
	a, err := s.NFA()
	if err != nil {
		t.Fatal(err)
	}
	if ok, w := a.IsPrefixClosed(); !ok {
		t.Errorf("system language not prefix-closed, witness %v", w)
	}
	b, err := s.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	ab := s.Alphabet()
	if !b.AcceptsLasso(word.MustLasso(nil, word.FromNames(ab, "a", "b"))) {
		t.Error("behaviors reject (ab)^ω")
	}
	if b.AcceptsLasso(word.MustLasso(nil, word.FromNames(ab, "a"))) {
		t.Error("behaviors accept a^ω")
	}
}

func TestTrimRemovesDeadEnds(t *testing.T) {
	s := loopSystem()
	// Dead end d reachable from s0; unreachable state u.
	s.AddEdge("s0", "b", "d")
	s.AddState("u")
	trimmed, err := s.Trim()
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.NumStates() != 2 {
		t.Errorf("Trim left %d states, want 2", trimmed.NumStates())
	}
	if _, ok := trimmed.LookupState("d"); ok {
		t.Error("dead end survived Trim")
	}
	// A system whose initial state dies must error.
	ab := alphabet.FromNames("a")
	dead := New(ab)
	dead.AddEdge("x", "a", "y")
	ix, _ := dead.LookupState("x")
	dead.SetInitial(ix)
	if _, err := dead.Trim(); err == nil {
		t.Error("Trim accepted a system without infinite behavior")
	}
}

func TestNoInitialErrors(t *testing.T) {
	s := New(alphabet.FromNames("a"))
	s.AddEdge("x", "a", "x")
	if _, err := s.NFA(); err == nil {
		t.Error("NFA without initial state succeeded")
	}
	if _, err := s.Behaviors(); err == nil {
		t.Error("Behaviors without initial state succeeded")
	}
	if _, err := s.Trim(); err == nil {
		t.Error("Trim without initial state succeeded")
	}
}

func TestProductSynchronizesSharedActions(t *testing.T) {
	// P: p0 -sync-> p1 -priv1-> p0 ; Q: q0 -sync-> q1 -priv2-> q0.
	abP := alphabet.FromNames("sync", "priv1")
	p := New(abP)
	p.AddEdge("p0", "sync", "p1")
	p.AddEdge("p1", "priv1", "p0")
	ip, _ := p.LookupState("p0")
	p.SetInitial(ip)

	abQ := alphabet.FromNames("sync", "priv2")
	q := New(abQ)
	q.AddEdge("q0", "sync", "q1")
	q.AddEdge("q1", "priv2", "q0")
	iq, _ := q.LookupState("q0")
	q.SetInitial(iq)

	prod, err := Product(p, q)
	if err != nil {
		t.Fatal(err)
	}
	ab := prod.Alphabet()
	// sync must move both; priv1/priv2 interleave.
	if !prod.AcceptsWord(word.FromNames(ab, "sync", "priv1", "priv2")) {
		t.Error("product rejects sync·priv1·priv2")
	}
	if !prod.AcceptsWord(word.FromNames(ab, "sync", "priv2", "priv1")) {
		t.Error("product rejects sync·priv2·priv1")
	}
	if prod.AcceptsWord(word.FromNames(ab, "priv1")) {
		t.Error("product fires priv1 before its owner reached p1")
	}
	if prod.AcceptsWord(word.FromNames(ab, "sync", "sync")) {
		t.Error("product fires sync twice without returning")
	}
	if prod.NumStates() != 4 {
		t.Errorf("product has %d states, want 4", prod.NumStates())
	}
}

func TestProductPrivateOnly(t *testing.T) {
	// Disjoint alphabets: full interleaving, 4 states.
	abP := alphabet.FromNames("x")
	p := New(abP)
	p.AddEdge("p0", "x", "p0")
	ip, _ := p.LookupState("p0")
	p.SetInitial(ip)

	abQ := alphabet.FromNames("y")
	q := New(abQ)
	q.AddEdge("q0", "y", "q0")
	iq, _ := q.LookupState("q0")
	q.SetInitial(iq)

	prod, err := Product(p, q)
	if err != nil {
		t.Fatal(err)
	}
	ab := prod.Alphabet()
	if !prod.AcceptsWord(word.FromNames(ab, "x", "y", "x", "y", "y")) {
		t.Error("interleaving product rejects a shuffle")
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	text := `
# the small loop
init s0
s0 a s1
s1 b s0
`
	s, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStates() != 2 || s.Initial() < 0 {
		t.Fatalf("parsed system wrong: %d states", s.NumStates())
	}
	out := s.FormatString()
	s2, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse: %v (text: %q)", err, out)
	}
	if s2.FormatString() != out {
		t.Error("Format/Parse not a fixpoint")
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"s0 a s1",                       // missing init
		"init s0\ninit s1\ns0 a s1",     // duplicate init
		"init\ns0 a s1",                 // malformed init
		"init s0\ns0 a",                 // short transition line
		"init s0\ns0 a s1 extra-field1", // long transition line
	} {
		if _, err := ParseString(text); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", text)
		}
	}
}

func TestDOT(t *testing.T) {
	s := loopSystem()
	dot := s.DOT("loop")
	for _, want := range []string{"digraph", "s0", "s1", "grey80", "label=\"a\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// Enabled returns the actions enabled at st, sorted.
func (s *System) Enabled(st State) []alphabet.Symbol {
	out := make([]alphabet.Symbol, 0, len(s.trans[st]))
	for sym, ts := range s.trans[st] {
		if len(ts) > 0 {
			out = append(out, sym)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
