package nfa

import "relive/internal/alphabet"

// DFA is a deterministic finite automaton. DFAs are partial: a missing
// transition rejects the rest of the input. The initial state of a DFA
// with at least one state is state 0 by construction of Determinize; use
// Initial for the general case.
type DFA struct {
	ab        *alphabet.Alphabet
	initial   State // -1 when the language is empty and the DFA has no states
	accepting []bool
	trans     []map[alphabet.Symbol]State
}

// NewDFA returns an empty DFA (empty language) over ab.
func NewDFA(ab *alphabet.Alphabet) *DFA {
	return &DFA{ab: ab, initial: -1}
}

// Alphabet returns the automaton's alphabet.
func (d *DFA) Alphabet() *alphabet.Alphabet { return d.ab }

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.accepting) }

// Initial returns the initial state, or -1 when the DFA is empty.
func (d *DFA) Initial() State { return d.initial }

// SetInitial sets the initial state.
func (d *DFA) SetInitial(s State) { d.initial = s }

// AddState adds a fresh state and returns it.
func (d *DFA) AddState(accepting bool) State {
	s := State(len(d.accepting))
	d.accepting = append(d.accepting, accepting)
	d.trans = append(d.trans, nil)
	return s
}

// Accepting reports whether s is accepting.
func (d *DFA) Accepting(s State) bool { return d.accepting[s] }

// SetTransition sets δ(from, sym) = to, overwriting any previous target.
func (d *DFA) SetTransition(from State, sym alphabet.Symbol, to State) {
	m := d.trans[from]
	if m == nil {
		m = make(map[alphabet.Symbol]State)
		d.trans[from] = m
	}
	m[sym] = to
}

// Delta returns δ(s, sym) and whether the transition is defined.
func (d *DFA) Delta(s State, sym alphabet.Symbol) (State, bool) {
	t, ok := d.trans[s][sym]
	return t, ok
}

// Clone returns a deep copy sharing the alphabet.
func (d *DFA) Clone() *DFA {
	c := &DFA{
		ab:        d.ab,
		initial:   d.initial,
		accepting: append([]bool(nil), d.accepting...),
		trans:     make([]map[alphabet.Symbol]State, len(d.trans)),
	}
	for i, m := range d.trans {
		if m == nil {
			continue
		}
		cm := make(map[alphabet.Symbol]State, len(m))
		for sym, t := range m {
			cm[sym] = t
		}
		c.trans[i] = cm
	}
	return c
}

// ToNFA converts the DFA to an equivalent NFA.
func (d *DFA) ToNFA() *NFA {
	a := New(d.ab)
	for i := 0; i < d.NumStates(); i++ {
		a.AddState(d.accepting[i])
	}
	for i, m := range d.trans {
		for sym, t := range m {
			a.AddTransition(State(i), sym, t)
		}
	}
	if d.initial >= 0 {
		a.SetInitial(d.initial)
	}
	return a
}

// Determinize builds a DFA for L(a) by the bitset subset construction:
// ε-transitions are removed first, state sets are []uint64 bitsets
// interned by content hash, and successor sets are computed by OR-ing
// CSR rows. Only reachable subsets are materialized; the worklist is an
// index cursor, not a slice-retaining pop.
func (a *NFA) Determinize() *DFA {
	d := NewDFA(a.ab)
	e := a
	if a.HasEpsilon() {
		e = a.RemoveEpsilon()
	}
	if len(e.initial) == 0 {
		return d
	}
	c := e.Compiled()
	n := e.NumStates()
	syms := e.ab.Symbols()

	accepting := newStateBits(n)
	for i, acc := range e.accepting {
		if acc {
			accepting.set(int32(i))
		}
	}

	in := newSetInterner(n)
	cur := newStateBits(n)  // scratch: the set being expanded
	next := newStateBits(n) // scratch: its successor under one symbol
	for _, s := range e.initial {
		cur.set(int32(s))
	}
	in.intern(cur)
	d.SetInitial(d.AddState(cur.intersects(accepting)))

	for qi := int32(0); qi < in.count; qi++ {
		copy(cur, in.at(qi)) // in.at aliases the backing store; intern below may grow it
		for _, sym := range syms {
			next.clear()
			c.step(cur, next, sym)
			if next.empty() {
				continue
			}
			t, fresh := in.intern(next)
			if fresh {
				d.AddState(next.intersects(accepting))
			}
			d.SetTransition(State(qi), sym, State(t))
		}
	}
	return d
}

// Complete returns an equivalent complete DFA: every state has a
// transition on every alphabet letter, adding a rejecting sink when
// needed. An empty DFA becomes a single rejecting sink.
func (d *DFA) Complete() *DFA {
	c := d.Clone()
	if c.initial < 0 {
		c.initial = c.AddState(false)
	}
	syms := c.ab.Symbols()
	sink := State(-1)
	ensureSink := func() State {
		if sink < 0 {
			sink = c.AddState(false)
			for _, sym := range syms {
				c.SetTransition(sink, sym, sink)
			}
		}
		return sink
	}
	n := c.NumStates() // before any sink
	for i := 0; i < n; i++ {
		for _, sym := range syms {
			if _, ok := c.Delta(State(i), sym); !ok {
				c.SetTransition(State(i), sym, ensureSink())
			}
		}
	}
	return c
}

// Trim removes unreachable and non-coaccessible states of the DFA.
func (d *DFA) Trim() *DFA {
	return d.ToNFA().Trim().Determinize()
}

// StateEquivalence computes Moore partition refinement on a complete DFA
// and returns, for each state, its equivalence class id. Two states get
// the same id iff their residual languages are equal. The DFA must be
// complete.
func (d *DFA) StateEquivalence() []int {
	n := d.NumStates()
	class := make([]int, n)
	for i := 0; i < n; i++ {
		if d.accepting[i] {
			class[i] = 1
		}
	}
	numClasses := countClasses(class)
	syms := d.ab.Symbols()
	for {
		// Signature of each state: own class + classes of successors.
		next := make(map[string]int)
		newClass := make([]int, n)
		for i := 0; i < n; i++ {
			b := make([]byte, 0, (len(syms)+1)*4)
			b = appendInt(b, class[i])
			for _, sym := range syms {
				t, ok := d.Delta(State(i), sym)
				if !ok {
					b = appendInt(b, -1)
				} else {
					b = appendInt(b, class[t])
				}
			}
			sig := string(b)
			id, ok := next[sig]
			if !ok {
				id = len(next)
				next[sig] = id
			}
			newClass[i] = id
		}
		// Moore refinement only ever splits classes; a fixpoint is reached
		// exactly when the class count stops growing.
		if len(next) == numClasses {
			return newClass
		}
		class = newClass
		numClasses = len(next)
	}
}

func countClasses(class []int) int {
	seen := map[int]bool{}
	for _, c := range class {
		seen[c] = true
	}
	return len(seen)
}

func appendInt(b []byte, v int) []byte {
	u := uint(v+2)<<1 | 1 // shift so that -1 encodes cleanly
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}

// Minimize returns the minimal DFA for L(d): trim, complete, merge
// equivalent states, and drop the dead sink class again. The result is
// partial and trim.
func (d *DFA) Minimize() *DFA {
	t := d.ToNFA().Trim().Determinize()
	if t.initial < 0 {
		return t
	}
	c := t.Complete()
	class := c.StateEquivalence()
	numClasses := countClasses(class)
	out := NewDFA(d.ab)
	rep := make([]State, numClasses)
	for i := range rep {
		rep[i] = -1
	}
	for i := 0; i < c.NumStates(); i++ {
		if rep[class[i]] < 0 {
			rep[class[i]] = out.AddState(c.accepting[i])
		}
	}
	for i := 0; i < c.NumStates(); i++ {
		for sym, to := range c.trans[i] {
			out.SetTransition(rep[class[i]], sym, rep[class[to]])
		}
	}
	out.SetInitial(rep[class[c.initial]])
	// Completion may have introduced a dead class; trim it away.
	return out.ToNFA().Trim().Determinize()
}
