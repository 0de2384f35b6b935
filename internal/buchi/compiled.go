package buchi

import (
	"relive/internal/alphabet"
	"relive/internal/graph"
)

// compiled is the CSR (compressed sparse row) form of a Büchi
// automaton: one flat successor array indexed by (state, symbol). It is
// built once per automaton — the Buchi caches it and invalidates the
// cache on AddState/AddTransition — and every hot algorithm (Reduce,
// AcceptingLasso, IntersectCtx, the on-the-fly emptiness checks) walks it
// instead of the map-based transition tables. Büchi automata have no
// ε-transitions, so symbols are numbered 1..syms and row (s, sym) is
// s*syms + sym-1.
type compiled struct {
	n    int
	syms int
	off  []int32
	dst  []int32
	// stateOff[v] = off[v*syms]: rows of a state are contiguous, so the
	// symbol-blind adjacency is a reslice, not a copy.
	stateOff []int32
}

func compile(b *Buchi) *compiled {
	n := b.NumStates()
	syms := b.ab.Size()
	c := &compiled{n: n, syms: syms}
	c.off = make([]int32, n*syms+1)
	total := 0
	for s, m := range b.trans {
		for sym, ts := range m {
			c.off[s*syms+int(sym)] = int32(len(ts)) // row sym-1, stored at +1 for the prefix sum
			total += len(ts)
		}
	}
	for i := 1; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	c.dst = make([]int32, total)
	for s, m := range b.trans {
		for sym, ts := range m {
			base := c.off[s*syms+int(sym)-1]
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

// compiled returns the cached CSR form, building it on first use. The
// shape checks guard against a stale cache: shared alphabets may grow
// after the automaton was compiled. The load/compile/store sequence is
// safe under concurrent readers: compile only reads the automaton, two
// racing compiles produce identical values, and the atomic store
// publishes a fully built form; whichever store lands last wins.
func (b *Buchi) compiled() *compiled {
	if c := b.csr.Load(); c != nil && c.n == len(b.accepting) && c.syms == b.ab.Size() {
		return c
	}
	c := compile(b)
	b.csr.Store(c)
	return c
}

// row returns the successors of s under sym as a shared int32 slice.
func (c *compiled) row(s State, sym alphabet.Symbol) []int32 {
	r := int(s)*c.syms + int(sym) - 1
	return c.dst[c.off[r]:c.off[r+1]]
}

// graph returns the symbol-blind adjacency for the graph algorithms.
func (c *compiled) graph() graph.CSR {
	return graph.CSR{Off: c.stateOff, Dst: c.dst}
}
