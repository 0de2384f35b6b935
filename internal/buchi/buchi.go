// Package buchi implements nondeterministic Büchi automata over interned
// alphabets: products, union, emptiness with ultimately periodic witness
// extraction, reduction (trimming states that cannot contribute to an
// accepted ω-word), limits of prefix-closed regular languages
// (lim(L), Section 3 of Nitsche & Wolper, PODC'97), prefix languages
// pre(L_ω), lasso membership, and rank-based complementation.
package buchi

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/word"
)

// State identifies a Büchi automaton state.
type State int

// Buchi is a nondeterministic Büchi automaton. There are no
// ε-transitions; acceptance is "visits an accepting state infinitely
// often".
type Buchi struct {
	ab        *alphabet.Alphabet
	initial   []State
	accepting []bool
	trans     []map[alphabet.Symbol][]State
	// csr is the lazily built compiled form (see compiled.go); it is
	// invalidated whenever a state or transition is added. The atomic
	// pointer makes the lazy build safe under concurrent readers (the
	// parallel decision procedures share automata across goroutines);
	// mutating an automaton concurrently with reads remains unsupported.
	csr atomic.Pointer[compiled]
}

// New returns an empty Büchi automaton over ab.
func New(ab *alphabet.Alphabet) *Buchi {
	return &Buchi{ab: ab}
}

// Alphabet returns the automaton's alphabet.
func (b *Buchi) Alphabet() *alphabet.Alphabet { return b.ab }

// NumStates returns the number of states.
func (b *Buchi) NumStates() int { return len(b.accepting) }

// NumTransitions returns the total number of transitions, so gauges and
// users need not walk the transition maps by hand.
func (b *Buchi) NumTransitions() int {
	n := 0
	for _, m := range b.trans {
		for _, ts := range m {
			n += len(ts)
		}
	}
	return n
}

// NumAccepting returns the number of accepting states.
func (b *Buchi) NumAccepting() int {
	n := 0
	for _, acc := range b.accepting {
		if acc {
			n++
		}
	}
	return n
}

// AddState adds a fresh state.
func (b *Buchi) AddState(accepting bool) State {
	s := State(len(b.accepting))
	b.accepting = append(b.accepting, accepting)
	b.trans = append(b.trans, nil)
	b.csr.Store(nil)
	return s
}

// SetInitial marks s initial.
func (b *Buchi) SetInitial(s State) { b.initial = append(b.initial, s) }

// Initial returns the initial states.
func (b *Buchi) Initial() []State { return b.initial }

// Accepting reports whether s is accepting.
func (b *Buchi) Accepting(s State) bool { return b.accepting[s] }

// SetAccepting sets the acceptance status of s.
func (b *Buchi) SetAccepting(s State, accepting bool) { b.accepting[s] = accepting }

// AddTransition adds from --sym--> to. ε is not a legal Büchi label.
func (b *Buchi) AddTransition(from State, sym alphabet.Symbol, to State) {
	if sym == alphabet.Epsilon {
		panic("buchi: ε-transition added to Büchi automaton")
	}
	m := b.trans[from]
	if m == nil {
		m = make(map[alphabet.Symbol][]State)
		b.trans[from] = m
	}
	for _, t := range m[sym] {
		if t == to {
			return
		}
	}
	m[sym] = append(m[sym], to)
	b.csr.Store(nil)
}

// addEdge appends from --sym--> to without the duplicate scan. It is
// the fast path of the product constructions, whose interning already
// guarantees distinct targets per (state, symbol) row.
func (b *Buchi) addEdge(from State, sym alphabet.Symbol, to State) {
	m := b.trans[from]
	if m == nil {
		m = make(map[alphabet.Symbol][]State, 4)
		b.trans[from] = m
	}
	m[sym] = append(m[sym], to)
	b.csr.Store(nil)
}

// Succ returns the successors of s under sym.
func (b *Buchi) Succ(s State, sym alphabet.Symbol) []State { return b.trans[s][sym] }

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

func (b *Buchi) initialInts() []int {
	out := make([]int, len(b.initial))
	for i, s := range b.initial {
		out[i] = int(s)
	}
	return out
}

// DropAcceptance returns the automaton with every state accepting. This
// is the operation of Theorem 5.1: "A with its acceptance condition
// removed" turns a reduced Büchi automaton for L_ω ∩ P into a
// finite-state system accepting L_ω.
func (b *Buchi) DropAcceptance() *Buchi {
	c := b.Clone()
	for i := range c.accepting {
		c.accepting[i] = true
	}
	return c
}

// ToNFA reinterprets the Büchi automaton as an NFA on finite words with
// the same states and acceptance.
func (b *Buchi) ToNFA() *nfa.NFA {
	a := nfa.New(b.ab)
	for i := 0; i < b.NumStates(); i++ {
		a.AddState(b.accepting[i])
	}
	for i, m := range b.trans {
		for sym, ts := range m {
			for _, t := range ts {
				a.AddTransition(nfa.State(i), sym, nfa.State(t))
			}
		}
	}
	for _, s := range b.initial {
		a.SetInitial(nfa.State(s))
	}
	return a
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

// Reduce removes states that are unreachable or from which no ω-word can
// be accepted ("reduced" in the sense of Theorem 5.1). The accepted
// ω-language is unchanged, and afterwards the finite-path language from
// the initial states equals pre(L_ω(b)).
func (b *Buchi) Reduce() *Buchi {
	n := b.NumStates()
	g := b.compiled().graph()
	// States on an accepting cycle: in a nontrivial SCC containing an
	// accepting state.
	comps := graph.SCCs(g)
	onAcceptingCycle := make([]bool, n)
	for _, c := range comps {
		if graph.IsTrivialSCC(c, g) {
			continue
		}
		hasAcc := false
		for _, v := range c {
			if b.accepting[v] {
				hasAcc = true
				break
			}
		}
		if hasAcc {
			for _, v := range c {
				onAcceptingCycle[v] = true
			}
		}
	}
	live := graph.CoReachable(g, onAcceptingCycle)
	reach := graph.Reachable(g, b.initialInts())

	keep := make([]State, n)
	for i := range keep {
		keep[i] = -1
	}
	out := New(b.ab)
	for i := 0; i < n; i++ {
		if reach[i] && live[i] {
			keep[i] = out.AddState(b.accepting[i])
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		for sym, ts := range b.trans[i] {
			for _, t := range ts {
				if keep[t] >= 0 {
					out.AddTransition(keep[i], sym, keep[t])
				}
			}
		}
	}
	for _, s := range b.initial {
		if keep[s] >= 0 {
			out.SetInitial(keep[s])
		}
	}
	return out
}

// IsEmpty reports whether L_ω(b) is empty.
func (b *Buchi) IsEmpty() bool {
	_, ok := b.AcceptingLasso()
	return !ok
}

// AcceptingLasso returns an ultimately periodic word accepted by b, or
// ok=false when the language is empty. The witness consists of a shortest
// path to an accepting state lying on a cycle, followed by a cycle
// through that state.
func (b *Buchi) AcceptingLasso() (word.Lasso, bool) {
	n := b.NumStates()
	g := b.compiled().graph()
	reach := graph.Reachable(g, b.initialInts())
	comps := graph.SCCs(g)
	compOf := graph.ComponentOf(n, comps)

	// Find a reachable accepting state inside a nontrivial SCC.
	target := -1
	for _, c := range comps {
		if graph.IsTrivialSCC(c, g) {
			continue
		}
		for _, v := range c {
			if reach[v] && b.accepting[v] {
				target = v
				break
			}
		}
		if target >= 0 {
			break
		}
	}
	if target < 0 {
		return word.Lasso{}, false
	}

	prefix, _ := b.pathWord(b.initial, func(v State) bool { return int(v) == target }, nil)
	// Cycle: shortest nonempty path from target back to target within its SCC.
	inSCC := func(v State) bool { return compOf[v] == compOf[target] }
	var starts []State
	var startSyms []alphabet.Symbol
	for sym, ts := range b.trans[target] {
		for _, t := range ts {
			if inSCC(t) {
				starts = append(starts, t)
				startSyms = append(startSyms, sym)
			}
		}
	}
	// BFS from each first-step successor; take the first (shortest overall
	// is not required, any cycle suffices).
	for i, s := range starts {
		if s == State(target) {
			return word.MustLasso(prefix, word.Word{startSyms[i]}), true
		}
	}
	for i, s := range starts {
		rest, ok := b.pathWord([]State{s}, func(v State) bool { return int(v) == target }, inSCC)
		if ok {
			loop := append(word.Word{startSyms[i]}, rest...)
			return word.MustLasso(prefix, loop), true
		}
	}
	return word.Lasso{}, false
}

// pathWord returns the label word of a shortest path from any of the
// sources to a goal state, restricted to states satisfying within (nil
// means unrestricted). ok is false when no goal is reachable.
func (b *Buchi) pathWord(sources []State, goal func(State) bool, within func(State) bool) (word.Word, bool) {
	type entry struct {
		s      State
		parent int32
		sym    alphabet.Symbol
	}
	c := b.compiled()
	var queue []entry
	seen := make([]bool, b.NumStates())
	for _, s := range sources {
		if within != nil && !within(s) {
			continue
		}
		if !seen[s] {
			seen[s] = true
			queue = append(queue, entry{s: s, parent: -1})
		}
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if goal(cur.s) {
			var w word.Word
			for j := int32(i); queue[j].parent != -1; j = queue[j].parent {
				w = append(w, queue[j].sym)
			}
			for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
				w[l], w[r] = w[r], w[l]
			}
			return w, true
		}
		for sym := 1; sym <= c.syms; sym++ {
			for _, t := range c.row(cur.s, alphabet.Symbol(sym)) {
				t := State(t)
				if within != nil && !within(t) {
					continue
				}
				if !seen[t] {
					seen[t] = true
					queue = append(queue, entry{s: t, parent: int32(i), sym: alphabet.Symbol(sym)})
				}
			}
		}
	}
	return nil, false
}

// PrefixNFA returns an NFA for pre(L_ω(b)), the finite prefixes of
// accepted ω-words: reduce, then accept every finite path.
func (b *Buchi) PrefixNFA() *nfa.NFA {
	r := b.Reduce()
	a := r.ToNFA()
	return a.MarkAllAccepting()
}

// Intersect returns a Büchi automaton for L_ω(a) ∩ L_ω(c) using the
// standard two-track product. When either operand has every state
// accepting (a "safety" automaton), the plain product is used instead.
func Intersect(a, c *Buchi) *Buchi {
	out, _ := intersect(nil, a, c)
	return out
}

// IntersectCtx is Intersect with a cooperative cancellation checkpoint
// inside the product-construction loop: the product of two automata is
// quadratic in their sizes, and a context deadline must be able to stop
// it mid-build. A nil ctx never cancels. When ctx carries a recorder
// (obs.ContextWithRecorder), the product is reported as a
// "buchi.Intersect" span.
func IntersectCtx(ctx context.Context, a, c *Buchi) (*Buchi, error) {
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "buchi.Intersect").
		Int("left_states", int64(a.NumStates())).
		Int("right_states", int64(c.NumStates()))
	out, err := intersect(ctx, a, c)
	if err != nil {
		sp.Tag("aborted", "context").End()
		return nil, err
	}
	Record(rec, sp, "buchi.intersect", out)
	return out, nil
}

// intersect is the product construction behind Intersect and
// IntersectCtx.
func intersect(ctx context.Context, a, c *Buchi) (*Buchi, error) {
	if a.allAccepting() || c.allAccepting() {
		return plainProductCtx(ctx, a, c)
	}
	out := New(a.ab)
	ca, cc := a.compiled(), c.compiled()
	type key struct {
		x, y  State
		track uint8
	}
	index := map[key]State{}
	var queue []key
	intern := func(k key) State {
		if s, ok := index[k]; ok {
			return s
		}
		s := out.AddState(k.track == 1 && c.accepting[k.y])
		index[k] = s
		queue = append(queue, k)
		return s
	}
	for _, x := range a.initial {
		for _, y := range c.initial {
			out.SetInitial(intern(key{x, y, 0}))
		}
	}
	syms := a.ab.Size()
	var tick interrupt.Tick
	for qi := 0; qi < len(queue); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, err
		}
		k := queue[qi]
		from := index[k]
		track := k.track
		if track == 0 && a.accepting[k.x] {
			track = 1
		} else if track == 1 && c.accepting[k.y] {
			track = 0
		}
		for sym := 1; sym <= syms; sym++ {
			xs := ca.row(k.x, alphabet.Symbol(sym))
			if len(xs) == 0 {
				continue
			}
			ys := cc.row(k.y, alphabet.Symbol(sym))
			for _, x := range xs {
				for _, y := range ys {
					out.addEdge(from, alphabet.Symbol(sym), intern(key{State(x), State(y), track}))
				}
			}
		}
	}
	return out, nil
}

func (b *Buchi) allAccepting() bool {
	for _, acc := range b.accepting {
		if !acc {
			return false
		}
	}
	return len(b.accepting) > 0
}

// plainProductCtx builds the synchronous product with conjunction of
// acceptance; correct when one operand accepts with every state. The
// construction loop polls ctx (nil never cancels).
func plainProductCtx(ctx context.Context, a, c *Buchi) (*Buchi, error) {
	out := New(a.ab)
	ca, cc := a.compiled(), c.compiled()
	type pair struct{ x, y State }
	index := map[pair]State{}
	var queue []pair
	intern := func(p pair) State {
		if s, ok := index[p]; ok {
			return s
		}
		s := out.AddState(a.accepting[p.x] && c.accepting[p.y])
		index[p] = s
		queue = append(queue, p)
		return s
	}
	for _, x := range a.initial {
		for _, y := range c.initial {
			out.SetInitial(intern(pair{x, y}))
		}
	}
	syms := a.ab.Size()
	var tick interrupt.Tick
	for qi := 0; qi < len(queue); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, err
		}
		p := queue[qi]
		from := index[p]
		for sym := 1; sym <= syms; sym++ {
			xs := ca.row(p.x, alphabet.Symbol(sym))
			if len(xs) == 0 {
				continue
			}
			ys := cc.row(p.y, alphabet.Symbol(sym))
			for _, x := range xs {
				for _, y := range ys {
					out.addEdge(from, alphabet.Symbol(sym), intern(pair{State(x), State(y)}))
				}
			}
		}
	}
	return out, nil
}

// Union returns a Büchi automaton for L_ω(a) ∪ L_ω(c) by disjoint union.
func Union(a, c *Buchi) *Buchi {
	out := a.Clone()
	offset := State(out.NumStates())
	for i := 0; i < c.NumStates(); i++ {
		out.AddState(c.accepting[i])
	}
	for i := range c.trans {
		for sym, ts := range c.trans[i] {
			for _, t := range ts {
				out.AddTransition(State(i)+offset, sym, t+offset)
			}
		}
	}
	for _, s := range c.initial {
		out.SetInitial(s + offset)
	}
	return out
}

// LassoAutomaton returns a Büchi automaton accepting exactly {l}.
func LassoAutomaton(ab *alphabet.Alphabet, l word.Lasso) *Buchi {
	b := New(ab)
	n := len(l.Prefix) + len(l.Loop)
	states := make([]State, n)
	for i := 0; i < n; i++ {
		states[i] = b.AddState(true)
	}
	for i, sym := range l.Prefix {
		if i+1 < n {
			b.AddTransition(states[i], sym, states[i+1])
		}
	}
	loopStart := states[len(l.Prefix)]
	for i, sym := range l.Loop {
		from := states[len(l.Prefix)+i]
		to := loopStart
		if len(l.Prefix)+i+1 < n {
			to = states[len(l.Prefix)+i+1]
		}
		if i == len(l.Loop)-1 {
			to = loopStart
		}
		b.AddTransition(from, sym, to)
	}
	b.SetInitial(states[0])
	return b
}

// AcceptsLasso reports whether b accepts the ultimately periodic word l,
// via on-the-fly emptiness of the product with the lasso automaton.
func (b *Buchi) AcceptsLasso(l word.Lasso) bool {
	return !IntersectEmpty(b, LassoAutomaton(b.ab, l))
}

// LimitOfPrefixClosed returns a Büchi automaton for lim(L(a)) where L(a)
// must be prefix-closed: trim to states with an infinite continuation and
// accept with every state. By König's lemma this accepts exactly the
// ω-words all of whose prefixes are in L(a).
func LimitOfPrefixClosed(a *nfa.NFA) (*Buchi, error) {
	if ok, w := a.IsPrefixClosed(); !ok {
		return nil, fmt.Errorf("buchi: language is not prefix-closed (witness prefix %v)", w)
	}
	return limitOfPrefixClosedUnchecked(a), nil
}

// LimitOfAllAccepting is LimitOfPrefixClosed for automata whose every
// state accepts — the shape produced by transition systems — where
// prefix-closure holds by construction and only the cheap structural
// check is needed.
func LimitOfAllAccepting(a *nfa.NFA) (*Buchi, error) {
	for i := 0; i < a.NumStates(); i++ {
		if !a.Accepting(nfa.State(i)) {
			return nil, fmt.Errorf("buchi: state %d is not accepting; use LimitOfPrefixClosed", i)
		}
	}
	return limitOfPrefixClosedUnchecked(a), nil
}

// limitOfPrefixClosedUnchecked is LimitOfPrefixClosed without the
// (expensive) prefix-closure validation. It reads an ε-free input's
// cached CSR in place and writes the output in one pass: a state
// survives when it is reachable, co-reachable to an accepting state,
// and on an infinite path within those states. Survivors are numbered
// in ascending input order, each row keeps its input order, and the
// initial states keep theirs, so the result is the automaton that
// trimming, removing dead ends and copying would build one after the
// other.
func limitOfPrefixClosedUnchecked(a *nfa.NFA) *Buchi {
	e := a
	if e.HasEpsilon() {
		e = e.RemoveEpsilon()
	}
	n := e.NumStates()
	ce := e.Compiled()
	g := ce.Graph()
	rev := g.Reverse()
	inits := make([]int, len(e.Initial()))
	for i, s := range e.Initial() {
		inits[i] = int(s)
	}
	alive := graph.Reachable(g, inits)

	// Co-reachability to an accepting state, by a worklist on the
	// reverse graph. (Every state is a target in the all-accepting
	// shape of transition systems, so the worklist only seeds.)
	coreach := make([]bool, n)
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if e.Accepting(nfa.State(i)) {
			coreach[i] = true
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, u := range rev.Succ(int(queue[qi])) {
			if !coreach[u] {
				coreach[u] = true
				queue = append(queue, u)
			}
		}
	}

	// Remove dead ends — states with no successors cannot lie on an
	// infinite path — by an O(V+E) worklist restricted to the trimmed
	// states: track each state's count of edges into still-alive states,
	// and when one drops to zero propagate through the reverse graph.
	deg := make([]int32, n)
	queue = queue[:0]
	for v := 0; v < n; v++ {
		alive[v] = alive[v] && coreach[v]
	}
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		for _, t := range g.Succ(v) {
			if alive[t] {
				deg[v]++
			}
		}
		if deg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		alive[v] = false
		for _, u := range rev.Succ(int(v)) {
			if alive[u] {
				deg[u]--
				if deg[u] == 0 {
					queue = append(queue, u)
				}
			}
		}
	}

	// Number the survivors (reusing deg as the renumbering) and copy
	// their rows straight into the output's CSR; the transition maps
	// share one backing array with it.
	keep := deg
	m := 0
	for i := 0; i < n; i++ {
		keep[i] = -1
		if alive[i] {
			keep[i] = int32(m)
			m++
		}
	}
	syms := a.Alphabet().Size()
	c := &compiled{n: m, syms: syms, off: make([]int32, m*syms+1), stateOff: make([]int32, m+1)}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		v := int(keep[i])
		for sym := 1; sym <= syms; sym++ {
			for _, t := range ce.Row(nfa.State(i), alphabet.Symbol(sym)) {
				if keep[t] >= 0 {
					c.dst = append(c.dst, keep[t])
				}
			}
			c.off[v*syms+sym] = int32(len(c.dst))
		}
		c.stateOff[v+1] = int32(len(c.dst))
	}
	b := &Buchi{ab: a.Alphabet(), accepting: make([]bool, m), trans: make([]map[alphabet.Symbol][]State, m)}
	targets := make([]State, len(c.dst))
	for k, t := range c.dst {
		targets[k] = State(t)
	}
	for v := 0; v < m; v++ {
		b.accepting[v] = true
		for sym := 1; sym <= syms; sym++ {
			lo, hi := c.off[v*syms+sym-1], c.off[v*syms+sym]
			if lo == hi {
				continue
			}
			if b.trans[v] == nil {
				b.trans[v] = make(map[alphabet.Symbol][]State)
			}
			b.trans[v][alphabet.Symbol(sym)] = targets[lo:hi:hi]
		}
	}
	b.csr.Store(c)
	for _, s := range e.Initial() {
		if keep[s] >= 0 {
			b.initial = append(b.initial, State(keep[s]))
		}
	}
	return b
}

// Limit returns a Büchi automaton for lim(L(a)) = {x | infinitely many
// prefixes of x are in L(a)} for an arbitrary regular L(a): determinize,
// then accept on visiting accepting DFA states infinitely often. This is
// sound because the run of a DFA over an ω-word is unique.
func Limit(a *nfa.NFA) *Buchi {
	d := a.Determinize()
	b := New(a.Alphabet())
	for i := 0; i < d.NumStates(); i++ {
		b.AddState(d.Accepting(nfa.State(i)))
	}
	for i := 0; i < d.NumStates(); i++ {
		for _, sym := range a.Alphabet().Symbols() {
			if t, ok := d.Delta(nfa.State(i), sym); ok {
				b.AddTransition(State(i), sym, State(t))
			}
		}
	}
	if d.Initial() >= 0 {
		b.SetInitial(State(d.Initial()))
	}
	return b
}

// Included reports whether L_ω(a) ⊆ L_ω(c), using rank-based
// complementation of c. On failure it returns an accepted
// counterexample lasso in L_ω(a) \ L_ω(c).
func Included(a, c *Buchi) (bool, word.Lasso, error) {
	comp, err := c.Complement()
	if err != nil {
		return false, word.Lasso{}, fmt.Errorf("inclusion check: %w", err)
	}
	l, ok := IntersectLasso(a, comp)
	if ok {
		return false, l, nil
	}
	return true, word.Lasso{}, nil
}

// String renders the automaton for debugging.
func (b *Buchi) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Buchi(%d states, initial %v)\n", b.NumStates(), b.initial)
	for i := range b.trans {
		mark := " "
		if b.accepting[i] {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s%d:", mark, i)
		syms := make([]alphabet.Symbol, 0, len(b.trans[i]))
		for sym := range b.trans[i] {
			syms = append(syms, sym)
		}
		sort.Slice(syms, func(x, y int) bool { return syms[x] < syms[y] })
		for _, sym := range syms {
			fmt.Fprintf(&sb, " %s->%v", b.ab.Name(sym), b.trans[i][sym])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
