package buchi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
	"relive/internal/word"
)

// product is IntersectCtx without a context, for tests that use the
// product in an expression; a nil ctx never cancels, so it cannot fail.
func product(a, c *Buchi) *Buchi {
	p, _ := IntersectCtx(nil, a, c)
	return p
}

// infManyA returns a Büchi automaton over {a,b} accepting words with
// infinitely many a's.
func infManyA(ab *alphabet.Alphabet) *Buchi {
	b := New(ab)
	q0 := b.AddState(false)
	q1 := b.AddState(true)
	sa, sb := ab.Symbol("a"), ab.Symbol("b")
	b.AddTransition(q0, sb, q0)
	b.AddTransition(q0, sa, q1)
	b.AddTransition(q1, sa, q1)
	b.AddTransition(q1, sb, q0)
	b.SetInitial(q0)
	return b
}

// finManyA returns a Büchi automaton accepting words with finitely many
// a's (eventually only b's).
func finManyA(ab *alphabet.Alphabet) *Buchi {
	b := New(ab)
	q0 := b.AddState(false)
	q1 := b.AddState(true)
	sa, sb := ab.Symbol("a"), ab.Symbol("b")
	b.AddTransition(q0, sa, q0)
	b.AddTransition(q0, sb, q0)
	b.AddTransition(q0, sb, q1)
	b.AddTransition(q1, sb, q1)
	b.SetInitial(q0)
	return b
}

func lasso(ab *alphabet.Alphabet, prefix, loop string) word.Lasso {
	toWord := func(s string) word.Word {
		var w word.Word
		for _, r := range s {
			w = append(w, ab.Symbol(string(r)))
		}
		return w
	}
	return word.MustLasso(toWord(prefix), toWord(loop))
}

func TestAcceptsLasso(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	inf := infManyA(ab)
	fin := finManyA(ab)
	tests := []struct {
		prefix, loop string
		wantInf      bool
	}{
		{"", "a", true},
		{"", "b", false},
		{"ab", "ba", true},
		{"aaaa", "b", false},
		{"b", "ab", true},
	}
	for _, tc := range tests {
		l := lasso(ab, tc.prefix, tc.loop)
		if got := inf.AcceptsLasso(l); got != tc.wantInf {
			t.Errorf("infManyA accepts %s = %v, want %v", l.String(ab), got, tc.wantInf)
		}
		if got := fin.AcceptsLasso(l); got != !tc.wantInf {
			t.Errorf("finManyA accepts %s = %v, want %v", l.String(ab), got, !tc.wantInf)
		}
	}
}

func TestIsEmptyAndWitness(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	b := infManyA(ab)
	l, ok := b.AcceptingLasso()
	if !ok {
		t.Fatal("infManyA reported empty")
	}
	if !b.AcceptsLasso(l) {
		t.Errorf("witness %s not accepted by its own automaton", l.String(ab))
	}
	// Empty automaton: accepting state unreachable from a cycle.
	e := New(ab)
	q0 := e.AddState(false)
	q1 := e.AddState(true)
	e.AddTransition(q0, ab.Symbol("a"), q0) // cycle without acceptance
	e.AddTransition(q0, ab.Symbol("b"), q1) // accepting but no cycle
	e.SetInitial(q0)
	if !e.IsEmpty() {
		t.Error("automaton with acceptance off-cycle reported nonempty")
	}
}

// TestAcceptingLassoDeterministic: the cycle of the witness starts
// with the first letter, in symbol order, that stays in the accepting
// state's component, so repeated calls return one lasso.
func TestAcceptingLassoDeterministic(t *testing.T) {
	ab := alphabet.FromNames("a", "b", "c", "d")
	b := New(ab)
	s := b.AddState(true)
	for _, sym := range ab.Symbols() {
		b.AddTransition(s, sym, s)
	}
	b.SetInitial(s)
	want := lasso(ab, "", "a")
	for call := 0; call < 100; call++ {
		if l, ok := b.AcceptingLasso(); !ok || !l.Equal(want) {
			t.Fatalf("call %d: AcceptingLasso = %s, %v; want %s", call, l.String(ab), ok, want.String(ab))
		}
	}
}

func TestIntersect(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	inf := infManyA(ab)
	fin := finManyA(ab)
	both := product(inf, fin)
	if !both.IsEmpty() {
		l, _ := both.AcceptingLasso()
		t.Errorf("inf∩fin nonempty: %s", l.String(ab))
	}
	// inf ∩ (words with infinitely many b's): (ab)^ω accepted.
	infB := New(ab)
	q0 := infB.AddState(false)
	q1 := infB.AddState(true)
	infB.AddTransition(q0, ab.Symbol("a"), q0)
	infB.AddTransition(q0, ab.Symbol("b"), q1)
	infB.AddTransition(q1, ab.Symbol("b"), q1)
	infB.AddTransition(q1, ab.Symbol("a"), q0)
	infB.SetInitial(q0)
	prod := product(inf, infB)
	for _, tc := range []struct {
		prefix, loop string
		want         bool
	}{
		{"", "ab", true},
		{"", "a", false},
		{"", "b", false},
		{"bbb", "ba", true},
	} {
		l := lasso(ab, tc.prefix, tc.loop)
		if got := prod.AcceptsLasso(l); got != tc.want {
			t.Errorf("product accepts %s = %v, want %v", l.String(ab), got, tc.want)
		}
	}
}

// TestGeneralizedZeroSets: when both operands accept in every state,
// the product's generalized acceptance condition has zero sets to
// track, so every state accepts and every infinite run is accepted.
func TestGeneralizedZeroSets(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	left := infManyA(ab).DropAcceptance()
	right := UniversalAutomaton(ab)
	p := product(left, right)
	if p.NumStates() != left.NumStates() || p.NumAccepting() != p.NumStates() {
		t.Fatalf("product has %d states, %d accepting; want %d, all accepting",
			p.NumStates(), p.NumAccepting(), left.NumStates())
	}
	for _, tc := range []struct{ prefix, loop string }{
		{"", "a"}, {"", "b"}, {"ab", "ba"}, {"bbb", "a"},
	} {
		if l := lasso(ab, tc.prefix, tc.loop); !p.AcceptsLasso(l) {
			t.Errorf("product rejects %s", l.String(ab))
		}
	}
}

// TestIntersectAllDegenerate: intersecting with Σ^ω keeps the other
// operand's language, and intersecting with an automaton that has no
// states, or no initial state, gives an automaton with no states.
func TestIntersectAllDegenerate(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	one := infManyA(ab)
	for _, p := range []*Buchi{product(one, UniversalAutomaton(ab)), product(UniversalAutomaton(ab), one)} {
		if !p.AcceptsLasso(lasso(ab, "", "a")) || p.AcceptsLasso(lasso(ab, "", "b")) {
			t.Error("intersection with Σ^ω changed the language")
		}
	}
	noInitial := New(ab)
	noInitial.AddState(true)
	for _, empty := range []*Buchi{New(ab), noInitial} {
		for _, p := range []*Buchi{product(one, empty), product(empty, one)} {
			if p.NumStates() != 0 || len(p.Initial()) != 0 {
				t.Errorf("product with an empty operand has %d states, initial %v", p.NumStates(), p.Initial())
			}
		}
	}
}

// TestQuickIntersectAllAgreesWithBinary: intersecting all of two or
// three automata by a chain of binary products, where every product
// after the first has a product as its left operand, accepts exactly
// the lassos that every operand accepts.
func TestQuickIntersectAllAgreesWithBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	ab := genbase.Letters(2)
	for trial := 0; trial < 25; trial++ {
		autos := make([]*Buchi, 2+rng.Intn(2))
		for i := range autos {
			autos[i] = randomBuchi(rng, ab, 1+rng.Intn(3))
		}
		chain := autos[0]
		for _, a := range autos[1:] {
			chain = product(chain, a)
		}
		for i := 0; i < 25; i++ {
			l := genbase.Lasso(rng, ab, 3, 3)
			want := true
			for _, a := range autos {
				want = want && a.AcceptsLasso(l)
			}
			if chain.AcceptsLasso(l) != want {
				t.Fatalf("trial %d: chained product accepts %s = %v, want %v",
					trial, l.String(ab), !want, want)
			}
		}
	}
}

func TestReducePreservesLanguage(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	b := infManyA(ab)
	// Add junk: a dead state reachable but unable to accept.
	dead := b.AddState(false)
	b.AddTransition(0, ab.Symbol("b"), dead)
	b.AddTransition(dead, ab.Symbol("b"), dead)
	r := b.Reduce()
	if r.NumStates() != 2 {
		t.Errorf("Reduce left %d states, want 2", r.NumStates())
	}
	for _, tc := range []struct {
		prefix, loop string
		want         bool
	}{
		{"", "a", true}, {"", "b", false}, {"ab", "ba", true},
	} {
		l := lasso(ab, tc.prefix, tc.loop)
		if got := r.AcceptsLasso(l); got != tc.want {
			t.Errorf("reduced accepts %s = %v, want %v", l.String(ab), got, tc.want)
		}
	}
}

func TestPrefixNFA(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	// Automaton accepting only a^ω from initial: pre = a*.
	b := New(ab)
	q0 := b.AddState(true)
	b.AddTransition(q0, ab.Symbol("a"), q0)
	b.AddTransition(q0, ab.Symbol("b"), b.AddState(false)) // dead branch
	b.SetInitial(q0)
	p := b.PrefixNFA()
	for _, tc := range []struct {
		w    string
		want bool
	}{
		{"", true}, {"a", true}, {"aaa", true}, {"b", false}, {"ab", false},
	} {
		var w word.Word
		for _, r := range tc.w {
			w = append(w, ab.Symbol(string(r)))
		}
		if got := p.Accepts(w); got != tc.want {
			t.Errorf("pre(a^ω) accepts %q = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestDropAcceptance(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	b := infManyA(ab).DropAcceptance()
	if !b.AcceptsLasso(lasso(ab, "", "b")) {
		t.Error("acceptance-free automaton rejects b^ω")
	}
}

func TestComplementSmall(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	inf := infManyA(ab)
	comp, err := inf.Complement()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prefix, loop string
		inInf        bool
	}{
		{"", "a", true},
		{"", "b", false},
		{"ab", "ba", true},
		{"aaaa", "b", false},
		{"b", "ab", true},
		{"", "ab", true},
		{"ba", "bba", true},
	} {
		l := lasso(ab, tc.prefix, tc.loop)
		if got := comp.AcceptsLasso(l); got != !tc.inInf {
			t.Errorf("complement accepts %s = %v, want %v", l.String(ab), got, !tc.inInf)
		}
	}
	// comp ∩ inf must be empty.
	if !product(comp, inf).IsEmpty() {
		t.Error("L ∩ complement(L) nonempty")
	}
}

func TestComplementEmptyAndUniversal(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	empty := New(ab)
	comp, err := empty.Complement()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		l := genbase.Lasso(rng, ab, 3, 3)
		if !comp.AcceptsLasso(l) {
			t.Errorf("complement of ∅ rejects %s", l.String(ab))
		}
	}
	u := UniversalAutomaton(ab)
	compU, err := u.Complement()
	if err != nil {
		t.Fatal(err)
	}
	if !compU.IsEmpty() {
		l, _ := compU.AcceptingLasso()
		t.Errorf("complement of Σ^ω accepts %s", l.String(ab))
	}
}

// TestQuickComplementPartition: on random Büchi automata, every sampled
// lasso is accepted by exactly one of the automaton and its complement.
func TestQuickComplementPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ab := genbase.Letters(2)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4)
		b := randomBuchi(rng, ab, n)
		comp, err := b.Complement()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 25; i++ {
			l := genbase.Lasso(rng, ab, 3, 3)
			inB := b.AcceptsLasso(l)
			inC := comp.AcceptsLasso(l)
			if inB == inC {
				t.Fatalf("trial %d: %s in both or neither (B=%v C=%v)\n%s", trial, l.String(ab), inB, inC, b)
			}
		}
		if !product(b, comp).IsEmpty() {
			t.Fatalf("trial %d: L ∩ complement nonempty", trial)
		}
	}
}

func randomBuchi(rng *rand.Rand, ab *alphabet.Alphabet, n int) *Buchi {
	b := New(ab)
	for i := 0; i < n; i++ {
		b.AddState(rng.Float64() < 0.4)
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.55 {
					b.AddTransition(State(i), sym, State(rng.Intn(n)))
				}
			}
		}
	}
	b.SetInitial(0)
	return b
}

func TestIncludedWitness(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	inf := infManyA(ab)
	uni := UniversalAutomaton(ab)
	ok, _, err := Included(inf, uni)
	if err != nil || !ok {
		t.Errorf("inf ⊆ Σ^ω = %v, %v", ok, err)
	}
	ok, l, err := Included(uni, inf)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Σ^ω ⊆ inf reported true")
	}
	if !uni.AcceptsLasso(l) || inf.AcceptsLasso(l) {
		t.Errorf("counterexample %s not in Σ^ω \\ inf", l.String(ab))
	}
}

func TestLassoAutomaton(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		l := genbase.Lasso(rng, ab, 3, 3)
		auto := LassoAutomaton(ab, l)
		if !auto.AcceptsLasso(l) {
			t.Fatalf("lasso automaton rejects its own word %s", l.String(ab))
		}
		other := genbase.Lasso(rng, ab, 3, 3)
		if got, want := auto.AcceptsLasso(other), other.Equal(l); got != want {
			t.Fatalf("lasso automaton for %s accepts %s = %v, want %v",
				l.String(ab), other.String(ab), got, want)
		}
	}
}

func TestFromNFARoundTrip(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := infManyA(ab).ToNFA()
	b, err := FromNFA(a)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AcceptsLasso(lasso(ab, "", "a")) || b.AcceptsLasso(lasso(ab, "", "b")) {
		t.Error("FromNFA(ToNFA(b)) changed the ω-language")
	}
	eps := nfa.New(ab)
	q := eps.AddState(true)
	eps.AddTransition(q, alphabet.Epsilon, q)
	eps.SetInitial(q)
	if _, err := FromNFA(eps); err == nil {
		t.Error("FromNFA accepted an automaton with ε-transitions")
	}
}

// detInfA returns a deterministic Büchi automaton for "infinitely many
// a" over {a,b}.
func detInfA(ab *alphabet.Alphabet) *Buchi {
	b := New(ab)
	q0 := b.AddState(false)
	q1 := b.AddState(true)
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	b.AddTransition(q0, sb, q0)
	b.AddTransition(q0, sa, q1)
	b.AddTransition(q1, sa, q1)
	b.AddTransition(q1, sb, q0)
	b.SetInitial(q0)
	return b
}

// TestComplementAuto complements a deterministic and a
// nondeterministic automaton for "infinitely many a" with Complement,
// the one entry for every input.
func TestComplementAuto(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	det := detInfA(ab)
	nd := infManyA(ab)
	sa, _ := ab.Lookup("a")
	nd.AddTransition(0, sa, 0)
	for _, tc := range []struct {
		name string
		run  func() (*Buchi, error)
	}{
		{"Complement(det)", det.Complement},
		{"Complement(nondet)", nd.Complement},
	} {
		c, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.AcceptsLasso(lasso(ab, "", "a")) || !c.AcceptsLasso(lasso(ab, "", "b")) {
			t.Errorf("%s: wrong on a^ω or b^ω", tc.name)
		}
	}
}

func TestAccessorsAndString(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	b := detInfA(ab)
	if len(b.Initial()) != 1 || b.Initial()[0] != 0 {
		t.Errorf("Initial = %v", b.Initial())
	}
	b.SetAccepting(0, true)
	if !b.Accepting(0) {
		t.Error("SetAccepting did not stick")
	}
	s := b.String()
	for _, want := range []string{"Buchi(2 states", "*0:", "a->"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestLimitOfAllAcceptingRejectsPartial(t *testing.T) {
	ab := alphabet.FromNames("a")
	a := nfa.New(ab)
	q0 := a.AddState(true)
	q1 := a.AddState(false)
	sa, _ := ab.Lookup("a")
	a.AddTransition(q0, sa, q1)
	a.SetInitial(q0)
	_, err := LimitOfAllAccepting(a)
	if want := "buchi: state 1 is not accepting"; err == nil || err.Error() != want {
		t.Errorf("LimitOfAllAccepting of a non-all-accepting automaton: err = %v, want %q", err, want)
	}
	a.SetAccepting(q1, true)
	if _, err := LimitOfAllAccepting(a); err != nil {
		t.Errorf("LimitOfAllAccepting rejected a valid automaton: %v", err)
	}
}

// Clone returns a deep copy sharing the alphabet (and the immutable
// compiled form, when one has been built).
func (b *Buchi) Clone() *Buchi {
	c := &Buchi{
		ab:        b.ab,
		initial:   append([]State(nil), b.initial...),
		accepting: append([]bool(nil), b.accepting...),
		trans:     make([]map[alphabet.Symbol][]State, len(b.trans)),
	}
	c.csr.Store(b.csr.Load())
	for i, m := range b.trans {
		if m == nil {
			continue
		}
		cm := make(map[alphabet.Symbol][]State, len(m))
		for sym, ts := range m {
			cm[sym] = append([]State(nil), ts...)
		}
		c.trans[i] = cm
	}
	return c
}

// DropAcceptance returns the automaton with every state accepting: "A
// with its acceptance condition removed" in Theorem 5.1, which
// core.SynthesizeFairImplementation builds as a ts.System instead.
func (b *Buchi) DropAcceptance() *Buchi {
	c := b.Clone()
	for i := range c.accepting {
		c.accepting[i] = true
	}
	return c
}

// FromNFA reinterprets an ε-free NFA as a Büchi automaton with the same
// states and acceptance.
func FromNFA(a *nfa.NFA) (*Buchi, error) {
	if a.HasEpsilon() {
		return nil, fmt.Errorf("buchi: NFA has ε-transitions")
	}
	b := New(a.Alphabet())
	for i := 0; i < a.NumStates(); i++ {
		b.AddState(a.Accepting(nfa.State(i)))
	}
	for i := 0; i < a.NumStates(); i++ {
		for _, sym := range a.Alphabet().Symbols() {
			for _, t := range a.Succ(nfa.State(i), sym) {
				b.AddTransition(State(i), sym, State(t))
			}
		}
	}
	for _, s := range a.Initial() {
		b.SetInitial(State(s))
	}
	return b, nil
}
