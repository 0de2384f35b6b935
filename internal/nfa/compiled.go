package nfa

import (
	"relive/internal/alphabet"
	"relive/internal/graph"
)

// Compiled is the CSR (compressed sparse row) form of an NFA: one flat
// successor array indexed by (state, symbol), produced once per
// automaton and shared by every algorithm that walks transitions in an
// inner loop (determinization, inclusion, trimming, the Büchi limit
// constructions). Row 0 of each state holds the ε-successors, so the
// layout covers automata with ε-transitions too.
//
// The compiled form is a read-only snapshot: the NFA caches it and
// drops the cache whenever a state or transition is added, so callers
// just ask for it and never reason about staleness.
type Compiled struct {
	n    int // states
	syms int // rows per state: ε plus the proper letters
	off  []int32
	dst  []int32
	// stateOff[v] = off[v*syms]: the rows of one state are contiguous,
	// so the symbol-blind adjacency needed by the graph algorithms is a
	// free reslice.
	stateOff []int32
}

// compileTransitions builds a CSR from map-based transition tables. It
// is shared with package-internal callers that hold the raw maps.
func compileTransitions(n, properSyms int, trans []map[alphabet.Symbol][]State) *Compiled {
	syms := properSyms + 1 // row 0 is ε
	c := &Compiled{n: n, syms: syms}
	c.off = make([]int32, n*syms+1)
	total := 0
	for s, m := range trans {
		for sym, ts := range m {
			c.off[s*syms+int(sym)+1] = int32(len(ts))
			total += len(ts)
		}
	}
	for i := 1; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	c.dst = make([]int32, total)
	for s, m := range trans {
		for sym, ts := range m {
			base := c.off[s*syms+int(sym)]
			for i, t := range ts {
				c.dst[base+int32(i)] = int32(t)
			}
		}
	}
	c.stateOff = make([]int32, n+1)
	for v := 0; v <= n; v++ {
		c.stateOff[v] = c.off[v*syms]
	}
	return c
}

// Compiled returns the CSR form of the automaton, building and caching
// it on first use. The returned value is shared and read-only. The
// shape checks guard against a stale cache: shared alphabets may grow
// after the automaton was compiled. The load/compile/store sequence is
// safe under concurrent readers: compilation only reads the automaton,
// racing compiles produce identical values, and the atomic store
// publishes a fully built form.
func (a *NFA) Compiled() *Compiled {
	if c := a.csr.Load(); c != nil && c.n == a.NumStates() && c.syms == a.ab.Size()+1 {
		return c
	}
	c := compileTransitions(a.NumStates(), a.ab.Size(), a.trans)
	a.csr.Store(c)
	return c
}

// Row returns the successors of s under sym as a shared slice of state
// numbers. sym may be alphabet.Epsilon.
func (c *Compiled) Row(s State, sym alphabet.Symbol) []int32 {
	r := int(s)*c.syms + int(sym)
	return c.dst[c.off[r]:c.off[r+1]]
}

// Graph returns the symbol-blind adjacency (ε-edges included) for the
// graph algorithms. It shares the compiled arrays; no copying happens.
func (c *Compiled) Graph() graph.CSR {
	return graph.CSR{Off: c.stateOff, Dst: c.dst}
}

// step ORs, into dst, the successors under sym of every member of src.
// It is the inner move of the bitset subset constructions. src and dst
// must not alias; dst is not cleared first.
func (c *Compiled) step(src, dst stateBits, sym alphabet.Symbol) {
	src.forEach(func(q int32) {
		for _, t := range c.Row(State(q), sym) {
			dst.set(t)
		}
	})
}
