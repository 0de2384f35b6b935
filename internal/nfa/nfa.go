// Package nfa implements nondeterministic and deterministic finite
// automata over interned alphabets, with the language operations the
// relative-liveness theory needs: ε-removal, determinization,
// minimization, products, complement, inclusion and equivalence with
// counterexamples, prefix languages pre(L), left quotients cont(w, L),
// and prefix-closure.
//
// NFAs may contain ε-transitions (recorded under alphabet.Epsilon); every
// operation that requires an ε-free automaton removes them first. DFAs
// are partial by convention: a missing transition rejects.
package nfa

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/word"
)

// State identifies an automaton state.
type State int

// NFA is a nondeterministic finite automaton, possibly with
// ε-transitions.
type NFA struct {
	ab        *alphabet.Alphabet
	initial   []State
	accepting []bool
	trans     []map[alphabet.Symbol][]State
	// csr is the lazily built compiled form (see Compiled); it is
	// invalidated whenever a state or transition is added. The atomic
	// pointer makes the lazy build safe under concurrent readers;
	// mutating an automaton concurrently with reads remains unsupported.
	csr atomic.Pointer[Compiled]
}

// New returns an empty NFA over ab with no states.
func New(ab *alphabet.Alphabet) *NFA {
	return &NFA{ab: ab}
}

// Alphabet returns the automaton's alphabet.
func (a *NFA) Alphabet() *alphabet.Alphabet { return a.ab }

// NumStates returns the number of states.
func (a *NFA) NumStates() int { return len(a.accepting) }

// NumTransitions returns the total number of transitions, ε-transitions
// included, so gauges and users need not walk the transition maps by
// hand.
func (a *NFA) NumTransitions() int {
	n := 0
	for _, m := range a.trans {
		for _, ts := range m {
			n += len(ts)
		}
	}
	return n
}

// NumAccepting returns the number of accepting states.
func (a *NFA) NumAccepting() int {
	n := 0
	for _, acc := range a.accepting {
		if acc {
			n++
		}
	}
	return n
}

// AddState adds a fresh state and returns it; accepting sets its
// acceptance status.
func (a *NFA) AddState(accepting bool) State {
	s := State(len(a.accepting))
	a.accepting = append(a.accepting, accepting)
	a.trans = append(a.trans, nil)
	a.csr.Store(nil)
	return s
}

// AddStates adds n fresh non-accepting states.
func (a *NFA) AddStates(n int) {
	for i := 0; i < n; i++ {
		a.AddState(false)
	}
}

// SetInitial marks s as an initial state.
func (a *NFA) SetInitial(s State) { a.initial = append(a.initial, s) }

// Initial returns the initial states.
func (a *NFA) Initial() []State { return a.initial }

// SetAccepting sets the acceptance status of s.
func (a *NFA) SetAccepting(s State, accepting bool) { a.accepting[s] = accepting }

// Accepting reports whether s is accepting.
func (a *NFA) Accepting(s State) bool { return a.accepting[s] }

// AddTransition adds the transition from --sym--> to. Using
// alphabet.Epsilon as sym adds an ε-transition. Duplicate transitions are
// ignored.
func (a *NFA) AddTransition(from State, sym alphabet.Symbol, to State) {
	m := a.trans[from]
	if m == nil {
		m = make(map[alphabet.Symbol][]State)
		a.trans[from] = m
	}
	for _, t := range m[sym] {
		if t == to {
			return
		}
	}
	m[sym] = append(m[sym], to)
	a.csr.Store(nil)
}

// Succ returns the successors of s under sym (no ε-closure applied).
func (a *NFA) Succ(s State, sym alphabet.Symbol) []State {
	return a.trans[s][sym]
}

// HasEpsilon reports whether the automaton has any ε-transition.
func (a *NFA) HasEpsilon() bool {
	for _, m := range a.trans {
		if len(m[alphabet.Epsilon]) > 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy sharing the alphabet (and the immutable
// compiled form, when one has been built).
func (a *NFA) Clone() *NFA {
	c := &NFA{
		ab:        a.ab,
		initial:   append([]State(nil), a.initial...),
		accepting: append([]bool(nil), a.accepting...),
		trans:     make([]map[alphabet.Symbol][]State, len(a.trans)),
	}
	c.csr.Store(a.csr.Load())
	for i, m := range a.trans {
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

// EpsilonClosure returns the ε-closure of the given state set, sorted.
func (a *NFA) EpsilonClosure(set []State) []State {
	seen := make(map[State]bool, len(set))
	stack := append([]State(nil), set...)
	for _, s := range set {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.trans[s][alphabet.Epsilon] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step returns the ε-closed successor set of the ε-closed set under sym.
func (a *NFA) Step(set []State, sym alphabet.Symbol) []State {
	var next []State
	seen := make(map[State]bool)
	for _, s := range set {
		for _, t := range a.trans[s][sym] {
			if !seen[t] {
				seen[t] = true
				next = append(next, t)
			}
		}
	}
	return a.EpsilonClosure(next)
}

// Accepts reports whether the automaton accepts the finite word w.
func (a *NFA) Accepts(w word.Word) bool {
	set := a.EpsilonClosure(a.initial)
	for _, sym := range w {
		set = a.Step(set, sym)
		if len(set) == 0 {
			return false
		}
	}
	for _, s := range set {
		if a.accepting[s] {
			return true
		}
	}
	return false
}

// ReachedBy returns the ε-closed set of states reached by reading w from
// the initial states. The result is empty when w leaves the automaton.
func (a *NFA) ReachedBy(w word.Word) []State {
	set := a.EpsilonClosure(a.initial)
	for _, sym := range w {
		set = a.Step(set, sym)
		if len(set) == 0 {
			return nil
		}
	}
	return set
}

// Residual returns an NFA for the left quotient cont(w, L(a)) =
// { v | wv ∈ L(a) } (Definition 3.1): the same automaton with initial
// states replaced by the states reached on w.
func (a *NFA) Residual(w word.Word) *NFA {
	c := a.Clone()
	c.initial = a.ReachedBy(w)
	return c
}

// ResidualFrom returns the automaton with the initial states replaced by
// the given set, denoting the residual language of that configuration.
func (a *NFA) ResidualFrom(set []State) *NFA {
	c := a.Clone()
	c.initial = append([]State(nil), set...)
	return c
}

// initialInts converts the initial states to ints for the graph package.
func (a *NFA) initialInts() []int {
	out := make([]int, len(a.initial))
	for i, s := range a.initial {
		out[i] = int(s)
	}
	return out
}

// Trim removes states that are unreachable from the initial states or
// cannot reach an accepting state, renumbering the survivors. The
// language is unchanged. The result may have zero states when the
// language is empty.
func (a *NFA) Trim() *NFA {
	n := a.NumStates()
	g := a.Compiled().Graph()
	reach := graph.Reachable(g, a.initialInts())
	acc := make([]bool, n)
	for i, ok := range a.accepting {
		acc[i] = ok
	}
	coreach := graph.CoReachable(g, acc)
	keep := make([]State, n)
	for i := range keep {
		keep[i] = -1
	}
	out := New(a.ab)
	for i := 0; i < n; i++ {
		if reach[i] && coreach[i] {
			keep[i] = out.AddState(a.accepting[i])
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		for sym, ts := range a.trans[i] {
			for _, t := range ts {
				if keep[t] >= 0 {
					out.AddTransition(keep[i], sym, keep[t])
				}
			}
		}
	}
	for _, s := range a.initial {
		if keep[s] >= 0 {
			out.SetInitial(keep[s])
		}
	}
	return out
}

// IsEmpty reports whether the language is empty.
func (a *NFA) IsEmpty() bool {
	n := a.NumStates()
	reach := graph.Reachable(a.Compiled().Graph(), a.initialInts())
	for i := 0; i < n; i++ {
		if reach[i] && a.accepting[i] {
			return false
		}
	}
	return true
}

// ShortestAccepted returns a shortest accepted word, or ok=false when the
// language is empty. ε-transitions contribute no letters.
func (a *NFA) ShortestAccepted() (word.Word, bool) {
	e := a.epsFree()
	n := e.NumStates()
	type entry struct {
		state  State
		parent int
		sym    alphabet.Symbol
	}
	var queue []entry
	seen := make([]bool, n)
	for _, s := range e.initial {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, entry{state: s, parent: -1})
		}
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if e.accepting[cur.state] {
			var w word.Word
			for j := i; queue[j].parent != -1; j = queue[j].parent {
				w = append(w, queue[j].sym)
			}
			for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
				w[l], w[r] = w[r], w[l]
			}
			return w, true
		}
		for sym, ts := range e.trans[cur.state] {
			for _, t := range ts {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, entry{state: t, parent: i, sym: sym})
				}
			}
		}
	}
	return nil, false
}

// RemoveEpsilon returns an equivalent automaton without ε-transitions.
func (a *NFA) RemoveEpsilon() *NFA {
	if !a.HasEpsilon() {
		return a.Clone()
	}
	out := New(a.ab)
	n := a.NumStates()
	closures := make([][]State, n)
	for i := 0; i < n; i++ {
		closures[i] = a.EpsilonClosure([]State{State(i)})
		acc := false
		for _, c := range closures[i] {
			if a.accepting[c] {
				acc = true
				break
			}
		}
		out.AddState(acc)
	}
	for i := 0; i < n; i++ {
		for _, c := range closures[i] {
			for sym, ts := range a.trans[c] {
				if sym == alphabet.Epsilon {
					continue
				}
				for _, t := range ts {
					out.AddTransition(State(i), sym, t)
				}
			}
		}
	}
	for _, s := range a.initial {
		out.SetInitial(s)
	}
	return out
}

// epsFree returns the receiver itself when it has no ε-transitions and
// RemoveEpsilon's output otherwise. Unlike RemoveEpsilon, which always
// deep-copies so callers may mutate the result, epsFree is for the
// read-only operation paths (products, inclusion, universality): on
// already ε-free automata they skip the copy entirely, and the CSR
// compile they trigger lands in the original automaton's cache where
// later checks reuse it.
func (a *NFA) epsFree() *NFA {
	if !a.HasEpsilon() {
		return a
	}
	return a.RemoveEpsilon()
}

// MarkAllAccepting returns a copy with every state accepting. Combined
// with Trim this computes pre(L): the language of all prefixes of words
// in L.
func (a *NFA) MarkAllAccepting() *NFA {
	c := a.Clone()
	for i := range c.accepting {
		c.accepting[i] = true
	}
	return c
}

// PrefixLanguage returns an automaton for pre(L(a)), the set of all
// prefixes of accepted words.
func (a *NFA) PrefixLanguage() *NFA {
	// Trim copies, so the ε-free view can be shared with the receiver.
	return a.epsFree().Trim().MarkAllAccepting()
}

// String renders the automaton for debugging.
func (a *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA(%d states, initial %v)\n", a.NumStates(), a.initial)
	for i := range a.trans {
		mark := " "
		if a.accepting[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s%d:", mark, i)
		syms := make([]alphabet.Symbol, 0, len(a.trans[i]))
		for sym := range a.trans[i] {
			syms = append(syms, sym)
		}
		sort.Slice(syms, func(x, y int) bool { return syms[x] < syms[y] })
		for _, sym := range syms {
			fmt.Fprintf(&b, " %s->%v", a.ab.Name(sym), a.trans[i][sym])
		}
		b.WriteString("\n")
	}
	return b.String()
}
