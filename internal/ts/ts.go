// Package ts implements finite-state transition systems without
// acceptance conditions — the system model of Section 6 of Nitsche &
// Wolper (PODC'97). A system accepts the prefix-closed regular language
// L of its finite action sequences; its behaviors are the ω-language
// lim(L). The package provides construction, trimming, synchronous
// (shared-action) composition for compositional analysis, conversion to
// finite and Büchi automata, a text format, and DOT export.
package ts

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/nfa"
	"relive/internal/word"
)

// State identifies a system state.
type State int

// System is a finite-state transition system with a single initial state
// and action-labeled transitions. It may be nondeterministic.
type System struct {
	ab      *alphabet.Alphabet
	names   []string
	index   map[string]State
	initial State // -1 until set
	trans   []map[alphabet.Symbol][]State
}

// New returns an empty system over ab.
func New(ab *alphabet.Alphabet) *System {
	return &System{ab: ab, index: map[string]State{}, initial: -1}
}

// Alphabet returns the system's action alphabet.
func (s *System) Alphabet() *alphabet.Alphabet { return s.ab }

// NumStates returns the number of states.
func (s *System) NumStates() int { return len(s.names) }

// AddState adds a state with the given (unique) name, or returns the
// existing state of that name.
func (s *System) AddState(name string) State {
	if st, ok := s.index[name]; ok {
		return st
	}
	st := State(len(s.names))
	s.names = append(s.names, name)
	s.index[name] = st
	s.trans = append(s.trans, nil)
	return st
}

// StateName returns the name of st.
func (s *System) StateName(st State) string { return s.names[st] }

// LookupState returns the state with the given name.
func (s *System) LookupState(name string) (State, bool) {
	st, ok := s.index[name]
	return st, ok
}

// SetInitial sets the initial state.
func (s *System) SetInitial(st State) { s.initial = st }

// Initial returns the initial state, or -1 when unset.
func (s *System) Initial() State { return s.initial }

// AddTransition adds st --sym--> to. ε is not a legal action.
func (s *System) AddTransition(st State, sym alphabet.Symbol, to State) {
	if sym == alphabet.Epsilon {
		panic("ts: ε is not a legal action label")
	}
	m := s.trans[st]
	if m == nil {
		m = make(map[alphabet.Symbol][]State)
		s.trans[st] = m
	}
	for _, t := range m[sym] {
		if t == to {
			return
		}
	}
	m[sym] = append(m[sym], to)
}

// AddEdge adds a transition by names, interning states and the action.
func (s *System) AddEdge(from, action, to string) {
	s.AddTransition(s.AddState(from), s.ab.Symbol(action), s.AddState(to))
}

// Succ returns the successors of st under sym.
func (s *System) Succ(st State, sym alphabet.Symbol) []State { return s.trans[st][sym] }

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

// Edge is a labeled transition, used by enumeration helpers.
type Edge struct {
	From State
	Sym  alphabet.Symbol
	To   State
}

// Edges returns all transitions in deterministic order: grouped by
// source in state order, then by action symbol, each action's targets
// in insertion order.
func (s *System) Edges() []Edge {
	n := 0
	for _, m := range s.trans {
		for _, tos := range m {
			n += len(tos)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Edge, 0, n)
	syms := make([]alphabet.Symbol, 0, s.ab.Size())
	for from, m := range s.trans {
		syms = syms[:0]
		for sym := range m {
			syms = append(syms, sym)
		}
		slices.Sort(syms)
		for _, sym := range syms {
			for _, to := range m[sym] {
				out = append(out, Edge{From: State(from), Sym: sym, To: to})
			}
		}
	}
	return out
}

// CSR returns the transitions in compressed-sparse-row form, in Edges
// order: the i-th transition of state v is the edge with dense id
// g.Off[v]+i, leading to g.Dst[id] under syms[id].
func (s *System) CSR() (g graph.CSR, syms []alphabet.Symbol) {
	edges := s.Edges()
	g = graph.CSR{Off: make([]int32, s.NumStates()+1), Dst: make([]int32, len(edges))}
	syms = make([]alphabet.Symbol, len(edges))
	for i, e := range edges {
		g.Off[e.From+1]++
		g.Dst[i] = int32(e.To)
		syms[i] = e.Sym
	}
	for v := 1; v < len(g.Off); v++ {
		g.Off[v] += g.Off[v-1]
	}
	return g, syms
}

// Clone returns a deep copy sharing the alphabet.
func (s *System) Clone() *System {
	c := New(s.ab)
	for _, n := range s.names {
		c.AddState(n)
	}
	for from, m := range s.trans {
		for sym, ts := range m {
			for _, to := range ts {
				c.AddTransition(State(from), sym, to)
			}
		}
	}
	c.initial = s.initial
	return c
}

// NFA returns the finite automaton accepting L: all finite action
// sequences from the initial state, every state accepting. The language
// is prefix-closed by construction.
func (s *System) NFA() (*nfa.NFA, error) {
	if s.initial < 0 {
		return nil, fmt.Errorf("ts: system has no initial state")
	}
	a := nfa.New(s.ab)
	for range s.names {
		a.AddState(true)
	}
	for from, m := range s.trans {
		for sym, ts := range m {
			for _, to := range ts {
				a.AddTransition(nfa.State(from), sym, nfa.State(to))
			}
		}
	}
	a.SetInitial(nfa.State(s.initial))
	return a, nil
}

// Behaviors returns the Büchi automaton for the system's behavior set
// lim(L) (Definition 6.2): states without infinite continuations are
// trimmed and all remaining states accept.
func (s *System) Behaviors() (*buchi.Buchi, error) {
	a, err := s.NFA()
	if err != nil {
		return nil, err
	}
	return buchi.LimitOfAllAccepting(a)
}

// Trim removes states that are unreachable or have no infinite
// continuation, so that every remaining finite path is a prefix of a
// behavior. It returns an error when nothing survives.
func (s *System) Trim() (*System, error) {
	return s.TrimCtx(nil)
}

// TrimCtx is Trim with cooperative cancellation checkpoints in the
// reachability pass and the dead-end pass, so a context deadline stops
// the trimming of a huge system. A nil ctx never cancels; a context
// error is returned as-is (wrapped), never conflated with the "no
// infinite behavior" verdict error. Survivors keep their relative
// order, and each action keeps its targets' order.
func (s *System) TrimCtx(ctx context.Context) (*System, error) {
	if s.initial < 0 {
		return nil, fmt.Errorf("ts: system has no initial state")
	}
	n := s.NumStates()
	g := graph.CSR{Off: make([]int32, n+1)}
	for v, m := range s.trans {
		for _, ts := range m {
			for _, t := range ts {
				g.Dst = append(g.Dst, int32(t))
			}
		}
		g.Off[v+1] = int32(len(g.Dst))
	}
	alive, err := graph.ReachableCtx(ctx, g, []int{int(s.initial)})
	if err != nil {
		return nil, fmt.Errorf("ts: trim: %w", err)
	}

	// Remove dead ends — states with no successors cannot lie on an
	// infinite path — by an O(V+E) worklist: track each reachable
	// state's count of edges into still-alive states, and when one
	// drops to zero propagate through the reverse graph.
	rev := g.Reverse()
	deg := make([]int32, n)
	queue := make([]int32, 0, n)
	var tick interrupt.Tick
	for v := 0; v < n; v++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, fmt.Errorf("ts: trim: %w", err)
		}
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
		if err := tick.Poll(ctx); err != nil {
			return nil, fmt.Errorf("ts: trim: %w", err)
		}
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
	if !alive[s.initial] {
		return nil, fmt.Errorf("ts: initial state has no infinite behavior")
	}

	// Number the survivors in input order (reusing deg as the
	// renumbering) and copy their rows; the output's target lists share
	// one backing array, capped so that appending to one never writes
	// into the next.
	keep := deg
	out := &System{ab: s.ab, index: map[string]State{}}
	edges := 0
	for v := 0; v < n; v++ {
		if !alive[v] {
			keep[v] = -1
			continue
		}
		edges += int(deg[v]) // a survivor's edges into survivors
		keep[v] = int32(len(out.names))
		out.index[s.names[v]] = State(len(out.names))
		out.names = append(out.names, s.names[v])
	}
	out.initial = State(keep[s.initial])
	out.trans = make([]map[alphabet.Symbol][]State, len(out.names))
	targets := make([]State, 0, edges)
	for v := 0; v < n; v++ {
		if keep[v] < 0 {
			continue
		}
		row := make(map[alphabet.Symbol][]State, len(s.trans[v]))
		for sym, ts := range s.trans[v] {
			lo := len(targets)
			for _, t := range ts {
				if keep[t] >= 0 {
					targets = append(targets, State(keep[t]))
				}
			}
			if hi := len(targets); hi > lo {
				row[sym] = targets[lo:hi:hi]
			}
		}
		out.trans[keep[v]] = row
	}
	return out, nil
}

// AcceptsWord reports whether w is a finite action sequence of the
// system (w ∈ L).
func (s *System) AcceptsWord(w word.Word) bool {
	if s.initial < 0 {
		return false
	}
	cur := map[State]bool{s.initial: true}
	for _, sym := range w {
		next := map[State]bool{}
		for st := range cur {
			for _, t := range s.trans[st][sym] {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return true
}

// Product returns the synchronous composition of two systems for
// compositional analysis ([22] in the paper): actions present in both
// alphabets synchronize, private actions interleave. The result's
// alphabet is the union; only states reachable from the joint initial
// state are materialized. State names are "x|y".
//
// States are numbered in breadth-first discovery order from the initial
// pair. Each pair's moves are taken by a's actions in a's interning
// order (a shared action pairs every a-successor with every
// b-successor), then by b's private actions in b's interning order, so
// equal operands always give an identical system.
func Product(a, b *System) (*System, error) {
	if a.initial < 0 || b.initial < 0 {
		return nil, fmt.Errorf("ts: product of systems without initial states")
	}
	ab := a.ab.Clone()
	mapB := ab.Extend(b.ab)

	// Resolve each action's product symbol once, not once per state.
	// a's actions keep their symbols, since ab extends a's alphabet.
	type move struct {
		sym    alphabet.Symbol // product symbol
		symB   alphabet.Symbol // b's symbol, for shared and b-private moves
		shared bool
	}
	aMoves := make([]move, 0, a.ab.Size())
	for _, symA := range a.ab.Symbols() {
		symB, shared := b.ab.Lookup(a.ab.Name(symA))
		aMoves = append(aMoves, move{sym: symA, symB: symB, shared: shared})
	}
	var bMoves []move // b's private actions
	for _, symB := range b.ab.Symbols() {
		if _, shared := a.ab.Lookup(b.ab.Name(symB)); !shared {
			bMoves = append(bMoves, move{sym: mapB[symB], symB: symB})
		}
	}

	out := New(ab)
	type pair struct{ x, y State }
	type item struct {
		p  pair
		st State
	}
	index := map[uint64]State{} // packed pair; faster than a struct key
	var queue []item
	intern := func(p pair) State {
		key := uint64(uint32(p.x))<<32 | uint64(uint32(p.y))
		if st, ok := index[key]; ok {
			return st
		}
		st := out.AddState(a.names[p.x] + "|" + b.names[p.y])
		index[key] = st
		queue = append(queue, item{p, st})
		return st
	}
	out.SetInitial(intern(pair{a.initial, b.initial}))
	for qi := 0; qi < len(queue); qi++ {
		p, from := queue[qi].p, queue[qi].st
		for _, m := range aMoves {
			for _, tx := range a.trans[p.x][m.sym] {
				if !m.shared {
					out.AddTransition(from, m.sym, intern(pair{tx, p.y}))
					continue
				}
				for _, ty := range b.trans[p.y][m.symB] {
					out.AddTransition(from, m.sym, intern(pair{tx, ty}))
				}
			}
		}
		for _, m := range bMoves {
			for _, ty := range b.trans[p.y][m.symB] {
				out.AddTransition(from, m.sym, intern(pair{p.x, ty}))
			}
		}
	}
	return out, nil
}
