package nfa

import (
	"math/rand"
	"sort"
	"testing"

	"relive/internal/alphabet"
)

// Tests for the bitset substrate of the subset constructions: interner
// semantics, the no-allocation guarantee of the hit path, and
// equivalence of the bitset Determinize with a straightforward
// map-keyed reference implementation.

func TestStateBitsBasics(t *testing.T) {
	b := newStateBits(130)
	for _, i := range []int32{0, 63, 64, 129} {
		b.set(i)
	}
	if !b.has(0) || !b.has(63) || !b.has(64) || !b.has(129) || b.has(1) || b.has(128) {
		t.Fatalf("membership wrong: %v", b)
	}
	var got []int32
	b.forEach(func(i int32) { got = append(got, i) })
	want := []int32{0, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("forEach yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach yielded %v, want %v", got, want)
		}
	}
	o := newStateBits(130)
	o.set(64)
	if !b.intersects(o) {
		t.Error("intersects missed shared member 64")
	}
	o.clear()
	o.set(1)
	if b.intersects(o) {
		t.Error("intersects reported disjoint sets as overlapping")
	}
	b.clear()
	if !b.empty() {
		t.Error("clear did not empty the set")
	}
}

func TestSetInternerIdentity(t *testing.T) {
	in := newSetInterner(100)
	a := newStateBits(100)
	a.set(5)
	a.set(70)
	id1, fresh1 := in.intern(a)
	if !fresh1 {
		t.Fatal("first intern not fresh")
	}
	// Same content through a different slice must hit the same id.
	b := newStateBits(100)
	b.set(70)
	b.set(5)
	id2, fresh2 := in.intern(b)
	if fresh2 || id2 != id1 {
		t.Fatalf("re-intern of equal content: id %d fresh %v, want id %d fresh false", id2, fresh2, id1)
	}
	if in.lookup(b) != id1 {
		t.Fatalf("lookup = %d, want %d", in.lookup(b), id1)
	}
	// A distinct set gets a distinct id, and at() round-trips contents
	// even after the backing array grew.
	c := newStateBits(100)
	c.set(99)
	id3, fresh3 := in.intern(c)
	if !fresh3 || id3 == id1 {
		t.Fatalf("distinct set interned as id %d fresh %v", id3, fresh3)
	}
	if !in.at(id1).equal(a) || !in.at(id3).equal(c) {
		t.Error("at() does not round-trip interned contents")
	}
	// The empty set is an ordinary interned value (the subset
	// construction's sink).
	e := newStateBits(100)
	idE, freshE := in.intern(e)
	if !freshE || idE == id1 || idE == id3 {
		t.Fatalf("empty set interned as id %d fresh %v", idE, freshE)
	}
	if in.lookup(e) != idE {
		t.Error("empty set lookup failed")
	}
}

// TestInternerHitPathNoAllocs pins the performance contract of the
// subset-construction inner loop: once a set has been interned, both
// lookup and re-intern of the same content allocate nothing.
func TestInternerHitPathNoAllocs(t *testing.T) {
	in := newSetInterner(256)
	s := newStateBits(256)
	s.set(3)
	s.set(77)
	s.set(200)
	in.intern(s)

	if allocs := testing.AllocsPerRun(200, func() {
		if in.lookup(s) < 0 {
			t.Error("interned set not found")
		}
	}); allocs != 0 {
		t.Errorf("lookup hit path allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, fresh := in.intern(s); fresh {
			t.Error("re-intern reported fresh")
		}
	}); allocs != 0 {
		t.Errorf("intern hit path allocates %.1f per run, want 0", allocs)
	}
}

// referenceDeterminize is the map-keyed subset construction the bitset
// version replaced, kept here as an oracle.
func referenceDeterminize(a *NFA) *DFA {
	d := NewDFA(a.ab)
	e := a
	if a.HasEpsilon() {
		e = a.RemoveEpsilon()
	}
	if len(e.initial) == 0 {
		return d
	}
	keyOf := func(set []State) string {
		b := make([]byte, 0, len(set)*2)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8))
		}
		return string(b)
	}
	norm := func(set map[State]bool) []State {
		out := make([]State, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	anyAccepting := func(set []State) bool {
		for _, s := range set {
			if e.accepting[s] {
				return true
			}
		}
		return false
	}
	index := map[string]State{}
	var sets [][]State
	intern := func(set []State) (State, bool) {
		k := keyOf(set)
		if s, ok := index[k]; ok {
			return s, false
		}
		s := d.AddState(anyAccepting(set))
		index[k] = s
		sets = append(sets, set)
		return s, true
	}
	init := map[State]bool{}
	for _, s := range e.initial {
		init[s] = true
	}
	s0, _ := intern(norm(init))
	d.SetInitial(s0)
	for qi := 0; qi < len(sets); qi++ {
		cur := sets[qi]
		for _, sym := range e.ab.Symbols() {
			next := map[State]bool{}
			for _, s := range cur {
				for _, t := range e.Succ(s, sym) {
					next[t] = true
				}
			}
			if len(next) == 0 {
				continue
			}
			to, _ := intern(norm(next))
			d.SetTransition(State(qi), sym, to)
		}
	}
	return d
}

// TestDeterminizeMatchesReference: the bitset subset construction and
// the map-keyed reference accept the same language on random NFAs.
func TestDeterminizeMatchesReference(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	for seed := int64(0); seed < 80; seed++ {
		a := buildFromSeed(seed, ab)
		got := a.Determinize()
		want := referenceDeterminize(a)
		if !EquivalentDFA(got, want) {
			t.Fatalf("seed %d: bitset Determinize differs from reference\nNFA: %v", seed, a)
		}
	}
}

// TestIncludedMatchesComplementRoute: the on-the-fly inclusion check
// agrees with the classical determinize-complement-intersect route, and
// returned counterexamples are genuine members of L(a) \ L(b).
func TestIncludedMatchesComplementRoute(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 80; i++ {
		a := buildFromSeed(rng.Int63(), ab)
		b := buildFromSeed(rng.Int63(), ab)
		ok, w, _ := IncludedCtx(nil, a, b)
		diff := Intersect(a, b.Determinize().Complement().ToNFA())
		want := diff.IsEmpty()
		if ok != want {
			t.Fatalf("iteration %d: Included = %v, complement route = %v", i, ok, want)
		}
		if !ok {
			if !a.Accepts(w) || b.Accepts(w) {
				t.Fatalf("iteration %d: counterexample %v not in L(a)\\L(b)", i, w)
			}
		}
	}
}

// has reports whether bit i is set.
func (b stateBits) has(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

// lookup returns the id of set, or -1 when it has not been interned.
// It never allocates.
func (in *setInterner) lookup(set stateBits) int32 {
	for _, id := range in.byHash[set.hash()] {
		if in.at(id).equal(set) {
			return id
		}
	}
	return -1
}
