// Package oracle provides slow, obviously-correct reference
// implementations of the decision problems of Nitsche & Wolper
// (PODC'97), written directly from the paper's definitions: relative
// liveness by bounded enumeration of pre(L_ω) vs pre(L_ω ∩ P)
// (Definition 4.1 via Lemma 4.3), relative safety by the direct
// Definition 4.2 characterization, machine closure per Definition 4.6,
// and naive lasso-membership checks.
//
// The package deliberately shares no decision code with internal/core:
// it never calls core, never uses the compiled CSR kernels, the
// pipeline cache, buchi emptiness/complementation, or package graph.
// Everything is recomputed from first principles with plain maps and a
// textbook two-pass SCC over the public data-structure accessors
// (ts.System.Succ, buchi.Buchi.Succ), so a bug in the optimized
// pipeline cannot hide in its own oracle.
//
// One dependency is unavoidable: a formula-backed property needs an
// automaton to answer ∃-continuation questions ("is there an infinite
// extension of w satisfying φ?"), and the only translation in the tree
// is ltl.TranslateBuchi — the same one core uses. The oracle therefore
// uses the translation only for those continuation questions, while all
// word-level membership checks go through ltl.EvalLasso (a direct
// implementation of the Section 3 semantics), and the differential
// suite pins the translation itself against EvalLasso with the oracle's
// own naive lasso membership as a dedicated metamorphic law.
package oracle

import (
	"fmt"
	"sort"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
	"relive/internal/ts"
	"relive/internal/word"
)

// Property mirrors core.Property without sharing its code: an ω-regular
// property given as a PLTL formula plus labeling, or as a Büchi
// automaton. When both a formula and an automaton are set, membership
// checks use the formula (direct semantics) and continuation questions
// use the automaton — the differential suite uses this to translate
// once per pair instead of once per query.
type Property struct {
	Formula *ltl.Formula
	Lab     *ltl.Labeling // nil means the canonical Σ-labeling
	Auto    *buchi.Buchi
}

// FromFormula returns the property of ω-words satisfying f under lab
// (nil lab = canonical Σ-labeling of the checked system's alphabet).
func FromFormula(f *ltl.Formula, lab *ltl.Labeling) Property {
	return Property{Formula: f, Lab: lab}
}

// FromAutomaton returns the property accepted by b.
func FromAutomaton(b *buchi.Buchi) Property { return Property{Auto: b} }

func (p Property) labelingFor(ab *alphabet.Alphabet) *ltl.Labeling {
	if p.Lab != nil {
		return p.Lab
	}
	return ltl.Canonical(ab)
}

// Satisfies reports whether the ultimately periodic word l is in P,
// by direct semantics: ltl.EvalLasso for formulas (the Section 3
// definition applied position by position), or the naive AcceptsLasso
// below for automata. No emptiness constructions are involved.
func (p Property) Satisfies(ab *alphabet.Alphabet, l word.Lasso) (bool, error) {
	switch {
	case p.Formula != nil:
		return ltl.EvalLasso(p.Formula, l, p.labelingFor(ab))
	case p.Auto != nil:
		return AcceptsLasso(p.Auto, l), nil
	}
	return false, fmt.Errorf("oracle: empty property")
}

// automaton returns a Büchi automaton for P, the one place the oracle
// leans on ltl.TranslateBuchi (see the package comment).
func (p Property) automaton(ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	switch {
	case p.Auto != nil:
		return p.Auto, nil
	case p.Formula != nil:
		return ltl.TranslateBuchi(nil, p.Formula, p.labelingFor(ab))
	}
	return nil, fmt.Errorf("oracle: empty property")
}

// Bounds caps the exhaustive enumerations. The defaults keep a 2-letter
// alphabet suite fast while still exercising every shape the small
// random systems can produce.
type Bounds struct {
	WordLen     int // prefix-enumeration depth for pre(...) comparisons
	LassoPrefix int // max prefix length of enumerated lassos
	LassoLoop   int // max loop length of enumerated lassos
}

// DefaultBounds is the shape used by the differential suite.
func DefaultBounds() Bounds { return Bounds{WordLen: 5, LassoPrefix: 2, LassoLoop: 3} }

// ---------------------------------------------------------------------
// Graph core: the oracle's only algorithmic machinery, a plain
// adjacency-list Kosaraju SCC pass shared by every continuation check.

// reachesAcceptingCycle returns, per node of the adjacency-list graph,
// whether a cycle through an accepting node is reachable from it. An
// accepting run of a Büchi-like structure exists from a node iff this
// holds, because in a finite graph "accepting infinitely often" means
// reaching a cycle that contains an accepting node.
func reachesAcceptingCycle(adj [][]int, accepting []bool) []bool {
	n := len(adj)
	// Kosaraju, pass 1: DFS finish order (iterative).
	order := make([]int, 0, n)
	visited := make([]bool, n)
	type frame struct{ v, i int }
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		stack := []frame{{s, 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(adj[f.v]) {
				w := adj[f.v][f.i]
				f.i++
				if !visited[w] {
					visited[w] = true
					stack = append(stack, frame{w, 0})
				}
			} else {
				order = append(order, f.v)
				stack = stack[:len(stack)-1]
			}
		}
	}
	rev := make([][]int, n)
	for v, ws := range adj {
		for _, w := range ws {
			rev[w] = append(rev[w], v)
		}
	}
	// Pass 2: components in reverse finish order over the reverse graph.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	ncomp := 0
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		if comp[v] >= 0 {
			continue
		}
		comp[v] = ncomp
		queue := []int{v}
		for qi := 0; qi < len(queue); qi++ {
			for _, w := range rev[queue[qi]] {
				if comp[w] < 0 {
					comp[w] = ncomp
					queue = append(queue, w)
				}
			}
		}
		ncomp++
	}
	// A component carries an accepting cycle iff it is nontrivial (or
	// has a self-loop) and contains an accepting node: inside an SCC
	// every node, in particular the accepting one, lies on a cycle.
	size := make([]int, ncomp)
	hasAcc := make([]bool, ncomp)
	hasLoop := make([]bool, ncomp)
	for v := 0; v < n; v++ {
		size[comp[v]]++
		if accepting[v] {
			hasAcc[comp[v]] = true
		}
		for _, w := range adj[v] {
			if w == v {
				hasLoop[comp[v]] = true
			}
		}
	}
	good := make([]bool, n)
	var seeds []int
	for v := 0; v < n; v++ {
		c := comp[v]
		if hasAcc[c] && (size[c] > 1 || hasLoop[c]) {
			good[v] = true
			seeds = append(seeds, v)
		}
	}
	// Backward closure: everything that can reach a seed.
	for qi := 0; qi < len(seeds); qi++ {
		for _, w := range rev[seeds[qi]] {
			if !good[w] {
				good[w] = true
				seeds = append(seeds, w)
			}
		}
	}
	return good
}

// ---------------------------------------------------------------------
// Naive Büchi primitives.

// stepBuchi advances a Büchi state set by one letter.
func stepBuchi(b *buchi.Buchi, cur map[buchi.State]bool, sym alphabet.Symbol) map[buchi.State]bool {
	next := map[buchi.State]bool{}
	for s := range cur {
		for _, t := range b.Succ(s, sym) {
			next[t] = true
		}
	}
	return next
}

// runBuchi reads w from the initial states.
func runBuchi(b *buchi.Buchi, w word.Word) map[buchi.State]bool {
	cur := map[buchi.State]bool{}
	for _, s := range b.Initial() {
		cur[s] = true
	}
	for _, sym := range w {
		cur = stepBuchi(b, cur, sym)
	}
	return cur
}

// liveBuchiStates returns the states from which an accepting cycle is
// reachable, i.e. the states with an accepting ω-continuation.
func liveBuchiStates(b *buchi.Buchi) []bool {
	n := b.NumStates()
	syms := b.Alphabet().Symbols()
	adj := make([][]int, n)
	acc := make([]bool, n)
	for v := 0; v < n; v++ {
		acc[v] = b.Accepting(buchi.State(v))
		for _, sym := range syms {
			for _, t := range b.Succ(buchi.State(v), sym) {
				adj[v] = append(adj[v], int(t))
			}
		}
	}
	return reachesAcceptingCycle(adj, acc)
}

// AcceptsLasso reports whether b accepts u·v^ω, naively: unroll the
// loop into positions and look, among the (state, loop position) pairs
// reachable after the prefix, for an accepting pair on a cycle. It
// shares nothing with buchi's product-based AcceptsLasso.
func AcceptsLasso(b *buchi.Buchi, l word.Lasso) bool {
	if !l.Valid() {
		return false
	}
	after := runBuchi(b, l.Prefix)
	if len(after) == 0 {
		return false
	}
	L := len(l.Loop)
	n := b.NumStates() * L
	id := func(s buchi.State, pos int) int { return int(s)*L + pos }
	adj := make([][]int, n)
	acc := make([]bool, n)
	for s := 0; s < b.NumStates(); s++ {
		for pos := 0; pos < L; pos++ {
			v := id(buchi.State(s), pos)
			acc[v] = b.Accepting(buchi.State(s))
			for _, t := range b.Succ(buchi.State(s), l.Loop[pos]) {
				adj[v] = append(adj[v], id(t, (pos+1)%L))
			}
		}
	}
	good := reachesAcceptingCycle(adj, acc)
	for s := range after {
		if good[id(s, 0)] {
			return true
		}
	}
	return false
}

// PrefixInOmega reports whether w ∈ pre(L_ω(b)): some run over w ends
// in a state with an accepting ω-continuation.
func PrefixInOmega(b *buchi.Buchi, w word.Word) bool {
	live := liveBuchiStates(b)
	for s := range runBuchi(b, w) {
		if live[s] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Naive system primitives.

// aliveStates computes, as a greatest fixpoint by repeated deletion,
// the states with at least one infinite continuation.
func aliveStates(sys *ts.System) []bool {
	n := sys.NumStates()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	syms := sys.Alphabet().Symbols()
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			has := false
			for _, sym := range syms {
				for _, t := range sys.Succ(ts.State(i), sym) {
					if alive[t] {
						has = true
					}
				}
			}
			if !has {
				alive[i] = false
				changed = true
			}
		}
	}
	return alive
}

// stepSystem advances a system state set by one letter, keeping only
// states the filter admits (nil filter keeps everything).
func stepSystem(sys *ts.System, cur map[ts.State]bool, sym alphabet.Symbol, keep []bool) map[ts.State]bool {
	next := map[ts.State]bool{}
	for s := range cur {
		for _, t := range sys.Succ(s, sym) {
			if keep == nil || keep[t] {
				next[t] = true
			}
		}
	}
	return next
}

func initialSet(sys *ts.System, keep []bool) map[ts.State]bool {
	cur := map[ts.State]bool{}
	if init := sys.Initial(); init >= 0 && (keep == nil || keep[init]) {
		cur[init] = true
	}
	return cur
}

// IsBehavior reports whether u·v^ω ∈ lim(L(sys)) (Definition 6.2), by
// the limit definition itself: every finite prefix must be an action
// sequence of the system (by König's lemma an infinite run then
// exists). The subset simulation over the loop is eventually periodic,
// so the check terminates at the first repeated (loop position, state
// set) signature.
func IsBehavior(sys *ts.System, l word.Lasso) bool {
	if !l.Valid() || sys.Initial() < 0 {
		return false
	}
	cur := initialSet(sys, nil)
	for _, sym := range l.Prefix {
		cur = stepSystem(sys, cur, sym, nil)
		if len(cur) == 0 {
			return false
		}
	}
	seen := map[string]bool{}
	pos := 0
	for {
		sig := fmt.Sprintf("%d|%s", pos, setSig(cur))
		if seen[sig] {
			return true
		}
		seen[sig] = true
		cur = stepSystem(sys, cur, l.Loop[pos], nil)
		if len(cur) == 0 {
			return false
		}
		pos = (pos + 1) % len(l.Loop)
	}
}

// PrefixInBehaviors reports whether w ∈ pre(lim L(sys)): the word is an
// action sequence ending in a state with an infinite continuation.
func PrefixInBehaviors(sys *ts.System, w word.Word) bool {
	if sys.Initial() < 0 {
		return false
	}
	alive := aliveStates(sys)
	cur := initialSet(sys, alive)
	for _, sym := range w {
		cur = stepSystem(sys, cur, sym, alive)
	}
	return len(cur) > 0
}

// ---------------------------------------------------------------------
// Product continuation questions: w ∈ pre(L_ω ∩ P).

// product answers "does some continuation keep us inside L_ω ∩ P?" for
// configurations of the alive system × property automaton cross
// product. The good set is precomputed once: a pair (s, q) is good iff
// from it the product has an infinite path visiting a pa-accepting pair
// infinitely often. Since every alive system state "accepts", the
// system side imposes no extra acceptance. System run and property run
// over a common word are chosen independently, which is why a
// configuration factors into a system set and a property set.
type product struct {
	sys   *ts.System
	alive []bool
	pa    *buchi.Buchi
	good  []bool // indexed s*|Q| + q
}

func newProduct(sys *ts.System, alive []bool, pa *buchi.Buchi) *product {
	ns, nq := sys.NumStates(), pa.NumStates()
	syms := sys.Alphabet().Symbols()
	n := ns * nq
	adj := make([][]int, n)
	acc := make([]bool, n)
	for s := 0; s < ns; s++ {
		if !alive[s] {
			continue
		}
		for q := 0; q < nq; q++ {
			v := s*nq + q
			acc[v] = pa.Accepting(buchi.State(q))
			for _, sym := range syms {
				ss := sys.Succ(ts.State(s), sym)
				if len(ss) == 0 {
					continue
				}
				qs := pa.Succ(buchi.State(q), sym)
				for _, s2 := range ss {
					if !alive[s2] {
						continue
					}
					for _, q2 := range qs {
						adj[v] = append(adj[v], int(s2)*nq+int(q2))
					}
				}
			}
		}
	}
	return &product{sys: sys, alive: alive, pa: pa, good: reachesAcceptingCycle(adj, acc)}
}

// pairConfig is the subset configuration after reading a prefix.
type pairConfig struct {
	sys  map[ts.State]bool
	prop map[buchi.State]bool
}

func (pr *product) initial() pairConfig {
	cfg := pairConfig{sys: initialSet(pr.sys, pr.alive), prop: map[buchi.State]bool{}}
	for _, q := range pr.pa.Initial() {
		cfg.prop[q] = true
	}
	return cfg
}

func (pr *product) step(cfg pairConfig, sym alphabet.Symbol) pairConfig {
	return pairConfig{
		sys:  stepSystem(pr.sys, cfg.sys, sym, pr.alive),
		prop: stepBuchi(pr.pa, cfg.prop, sym),
	}
}

// extendable reports whether some pair of the configuration is good.
func (pr *product) extendable(cfg pairConfig) bool {
	nq := pr.pa.NumStates()
	for s := range cfg.sys {
		for q := range cfg.prop {
			if pr.good[int(s)*nq+int(q)] {
				return true
			}
		}
	}
	return false
}

func (pr *product) after(w word.Word) pairConfig {
	cfg := pr.initial()
	for _, sym := range w {
		cfg = pr.step(cfg, sym)
	}
	return cfg
}

func (p Property) product(sys *ts.System) (*product, error) {
	pa, err := p.automaton(sys.Alphabet())
	if err != nil {
		return nil, err
	}
	return newProduct(sys, aliveStates(sys), pa), nil
}

// PrefixInIntersection reports whether w ∈ pre(L_ω ∩ P): some
// continuation x makes w·x a behavior of sys satisfying P.
func PrefixInIntersection(sys *ts.System, p Property, w word.Word) (bool, error) {
	if sys.Initial() < 0 {
		return false, nil
	}
	pr, err := p.product(sys)
	if err != nil {
		return false, err
	}
	return pr.extendable(pr.after(w)), nil
}

// ---------------------------------------------------------------------
// Bounded verdicts.

// RelativeLiveness decides, over the given word enumeration, whether P
// is live relative to sys: Definition 4.1 via the Lemma 4.3
// characterization pre(L_ω) = pre(L_ω ∩ P). Every listed word is
// tested; the first w ∈ pre(L_ω) \ pre(L_ω ∩ P) is returned as the bad
// prefix. A "holds" answer is exhaustive only up to the enumeration
// bound — the differential suite therefore treats it asymmetrically
// (see ConfirmBadPrefix).
func RelativeLiveness(sys *ts.System, p Property, words []word.Word) (bool, word.Word, error) {
	if sys.Initial() < 0 {
		return true, nil, nil
	}
	pr, err := p.product(sys)
	if err != nil {
		return false, nil, err
	}
	for _, w := range words {
		if !PrefixInBehaviors(sys, w) {
			continue
		}
		if !pr.extendable(pr.after(w)) {
			return false, w, nil
		}
	}
	return true, nil, nil
}

// ConfirmBadPrefix exactly verifies a relative-liveness witness:
// w ∈ pre(L_ω) and w ∉ pre(L_ω ∩ P). Unlike the bounded verdicts this
// is a complete check for the given word.
func ConfirmBadPrefix(sys *ts.System, p Property, w word.Word) (bool, error) {
	if !PrefixInBehaviors(sys, w) {
		return false, nil
	}
	in, err := PrefixInIntersection(sys, p, w)
	if err != nil {
		return false, err
	}
	return !in, nil
}

// everyPrefixExtendable reports whether every finite prefix of u·v^ω is
// in pre(L_ω ∩ P). The prefixes induce finitely many (loop position,
// configuration) signatures, so the scan stops at the first repeat.
func everyPrefixExtendable(pr *product, l word.Lasso) bool {
	cfg := pr.initial()
	if !pr.extendable(cfg) {
		return false
	}
	for _, sym := range l.Prefix {
		cfg = pr.step(cfg, sym)
		if !pr.extendable(cfg) {
			return false
		}
	}
	seen := map[string]bool{}
	pos := 0
	for {
		sig := fmt.Sprintf("%d|%s|%s", pos, setSig(cfg.sys), setSig(cfg.prop))
		if seen[sig] {
			return true
		}
		seen[sig] = true
		cfg = pr.step(cfg, l.Loop[pos])
		if !pr.extendable(cfg) {
			return false
		}
		pos = (pos + 1) % len(l.Loop)
	}
}

// ConfirmSafetyViolation exactly verifies a relative-safety witness per
// Definition 4.2: x is a behavior, x ∉ P, and every finite prefix of x
// can be extended to a behavior satisfying P (x is in the closure of
// L_ω ∩ P relative to L_ω).
func ConfirmSafetyViolation(sys *ts.System, p Property, l word.Lasso) (bool, error) {
	if !IsBehavior(sys, l) {
		return false, nil
	}
	sat, err := p.Satisfies(sys.Alphabet(), l)
	if err != nil {
		return false, err
	}
	if sat {
		return false, nil
	}
	pr, err := p.product(sys)
	if err != nil {
		return false, err
	}
	return everyPrefixExtendable(pr, l), nil
}

// RelativeSafety decides, over the given lasso enumeration, whether P
// is safe relative to sys (Definition 4.2): no behavior outside P has
// all its prefixes extendable inside L_ω ∩ P. Only ultimately periodic
// candidates are enumerated, which suffices for ω-regular data but
// makes a "holds" answer bounded, like RelativeLiveness.
func RelativeSafety(sys *ts.System, p Property, lassos []word.Lasso) (bool, word.Lasso, error) {
	if sys.Initial() < 0 {
		return true, word.Lasso{}, nil
	}
	pr, err := p.product(sys)
	if err != nil {
		return false, word.Lasso{}, err
	}
	for _, l := range lassos {
		if !IsBehavior(sys, l) {
			continue
		}
		sat, err := p.Satisfies(sys.Alphabet(), l)
		if err != nil {
			return false, word.Lasso{}, err
		}
		if sat {
			continue
		}
		if everyPrefixExtendable(pr, l) {
			return false, l, nil
		}
	}
	return true, word.Lasso{}, nil
}

// ConfirmCounterexample exactly verifies a satisfaction witness: l is a
// behavior of sys not in P.
func ConfirmCounterexample(sys *ts.System, p Property, l word.Lasso) (bool, error) {
	if !IsBehavior(sys, l) {
		return false, nil
	}
	sat, err := p.Satisfies(sys.Alphabet(), l)
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// Satisfaction decides, over the given lasso enumeration, whether every
// behavior of sys is in P (L_ω ⊆ P, the property of Theorem 4.7).
func Satisfaction(sys *ts.System, p Property, lassos []word.Lasso) (bool, word.Lasso, error) {
	for _, l := range lassos {
		bad, err := ConfirmCounterexample(sys, p, l)
		if err != nil {
			return false, word.Lasso{}, err
		}
		if bad {
			return false, l, nil
		}
	}
	return true, word.Lasso{}, nil
}

// MachineClosed decides, over the given word enumeration, whether
// (L_ω, Λ) is machine closed per Definition 4.6: pre(L_ω) ⊆ pre(Λ).
// The first word in pre(L_ω) \ pre(Λ) is returned as the bad prefix.
func MachineClosed(lomega, lambda *buchi.Buchi, words []word.Word) (bool, word.Word) {
	liveL := liveBuchiStates(lomega)
	liveLam := liveBuchiStates(lambda)
	inPre := func(b *buchi.Buchi, live []bool, w word.Word) bool {
		for s := range runBuchi(b, w) {
			if live[s] {
				return true
			}
		}
		return false
	}
	for _, w := range words {
		if inPre(lomega, liveL, w) && !inPre(lambda, liveLam, w) {
			return false, w
		}
	}
	return true, nil
}

// ConfirmClosureBadPrefix exactly verifies a machine-closure witness:
// w ∈ pre(L_ω) and w ∉ pre(Λ).
func ConfirmClosureBadPrefix(lomega, lambda *buchi.Buchi, w word.Word) bool {
	return PrefixInOmega(lomega, w) && !PrefixInOmega(lambda, w)
}

// ---------------------------------------------------------------------

// setSig renders a state set as a sorted signature for periodicity
// detection; S is ts.State or buchi.State.
func setSig[S ~int](set map[S]bool) string {
	xs := make([]int, 0, len(set))
	for s := range set {
		xs = append(xs, int(s))
	}
	sort.Ints(xs)
	return fmt.Sprint(xs)
}
