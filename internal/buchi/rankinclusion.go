package buchi

import (
	"context"
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// This file implements the lazy route for Büchi inclusion and
// universality: instead of eagerly materializing the full rank-based
// complement (Complement) and then intersecting, the complement is a
// successor-function view — configurations interned on first visit,
// per-(configuration, symbol) successor lists memoized — that serves as
// the right operand of emptiness.go's lazy product search, which pulls
// transitions on demand. So when L_ω(a) ⊈ L_ω(c) the exploration stops
// at the first counterexample cycle having touched only the complement
// states the search actually reached; the eager route pays for the
// whole 2^O(n log n) complement up front either way. Both routes enumerate
// successor rankings through the shared rankSuccessors helper, so the
// explored structure — and the verdicts and witnesses — match.

// rankKey interns a complement configuration (level ranking +
// breakpoint set), byte-per-state as in Complement.
type rankKey struct {
	ranks string // 0xFF for ⊥, otherwise the rank
	oset  string // 1 when in O
}

// rankView is the lazy Kupferman–Vardi complement of a Büchi automaton.
type rankView struct {
	b       *Buchi
	n       int
	numSyms int
	index   map[rankKey]int32
	ranks   [][]int  // decoded level ranking per configuration
	osets   [][]bool // decoded breakpoint set per configuration
	acc     []bool   // configuration accepts iff its O-set is empty
	succs   [][]int32
}

func newRankView(b *Buchi) *rankView {
	return &rankView{
		b:       b,
		n:       b.NumStates(),
		numSyms: b.ab.Size(),
		index:   make(map[rankKey]int32),
	}
}

func (v *rankView) intern(ranks []int, oset []bool) int32 {
	rb := make([]byte, v.n)
	ob := make([]byte, v.n)
	empty := true
	for i := 0; i < v.n; i++ {
		if ranks[i] < 0 {
			rb[i] = 0xFF
		} else {
			rb[i] = byte(ranks[i])
		}
		if oset[i] {
			ob[i] = 1
			empty = false
		}
	}
	k := rankKey{ranks: string(rb), oset: string(ob)}
	if id, ok := v.index[k]; ok {
		return id
	}
	id := int32(len(v.acc))
	v.index[k] = id
	v.ranks = append(v.ranks, append([]int(nil), ranks...))
	v.osets = append(v.osets, append([]bool(nil), oset...))
	v.acc = append(v.acc, empty)
	for i := 0; i < v.numSyms; i++ {
		v.succs = append(v.succs, nil)
	}
	return id
}

// initialCfg interns and returns the complement's initial
// configuration: the source's initial states at the maximal (even)
// rank 2(n−|F|), empty O-set.
func (v *rankView) initialCfg() int32 {
	numAcc := 0
	for _, acc := range v.b.accepting {
		if acc {
			numAcc++
		}
	}
	maxRank := 2 * (v.n - numAcc)
	ranks := make([]int, v.n)
	for i := range ranks {
		ranks[i] = -1
	}
	for _, s := range v.b.initial {
		ranks[s] = maxRank
	}
	return v.intern(ranks, make([]bool, v.n))
}

// accepting reports whether configuration id accepts: its O-set is
// empty.
func (v *rankView) accepting(id int32) bool { return v.acc[id] }

// successors returns the memoized successor configurations of id on
// sym, in the canonical rankSuccessors order, erroring when the view
// exceeds the same state budget as the eager construction.
func (v *rankView) successors(id int32, sym alphabet.Symbol) ([]int32, error) {
	k := int(id)*v.numSyms + int(sym) - 1
	if v.succs[k] != nil {
		return v.succs[k], nil
	}
	out := make([]int32, 0, 4)
	v.b.rankSuccessors(v.ranks[id], v.osets[id], sym, func(full []int, nextO []bool) {
		out = append(out, v.intern(full, nextO))
	})
	if len(v.acc) > maxComplementStates {
		return nil, fmt.Errorf("buchi: lazy complementation exceeded %d states (source has %d states)",
			maxComplementStates, v.n)
	}
	v.succs[k] = out
	return out, nil
}

// IncludedRankCtx reports whether L_ω(a) ⊆ L_ω(c) by searching the
// product of a with the lazy rank-based complement of c, returning a
// counterexample lasso in L_ω(a) \ L_ω(c) when the inclusion fails. It
// is the lazy route behind IncludedKernelCtx; Included is the eager
// reference it is differ-checked against.
func IncludedRankCtx(ctx context.Context, a, c *Buchi) (bool, word.Lasso, error) {
	if a.NumStates() == 0 || len(a.initial) == 0 {
		return true, word.Lasso{}, nil // L_ω(a) = ∅
	}
	v := newRankView(c)
	cinit := v.initialCfg()
	roots := make([]pkey, len(a.initial))
	for i, x := range a.initial {
		roots[i] = pkey{x: int32(x), y: cinit}
	}
	e := newExplorer(a, v, roots, a.allAccepting())
	comp, err := e.search(ctx)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return false, word.Lasso{}, err
		}
		return false, word.Lasso{}, fmt.Errorf("inclusion check: %w", err)
	}
	if comp == nil {
		return true, word.Lasso{}, nil
	}
	return false, e.lasso(comp), nil
}

// autoRankMin is the right-hand-side state count from which Büchi
// inclusion runs the lazy rank route. The eager complement is
// 2^O(n log n) in this count; below the threshold it is small enough
// that laziness cannot win.
const autoRankMin = 8

// ResolveKernel names the route IncludedKernelCtx runs against
// right-hand side c: "antichain" (the lazy rank route) from autoRankMin
// states, "subset" (the eager complement-then-intersect route) below.
func ResolveKernel(c *Buchi) string {
	if c.NumStates() >= autoRankMin {
		return "antichain"
	}
	return "subset"
}

// IncludedKernelCtx reports whether L_ω(a) ⊆ L_ω(c) on the route the
// size of c picks: the lazy rank route (IncludedRankCtx) from
// autoRankMin states, the eager Complement-then-IntersectLassoCtx route
// (Included) below.
func IncludedKernelCtx(ctx context.Context, a, c *Buchi) (bool, word.Lasso, error) {
	if ResolveKernel(c) == "antichain" {
		return IncludedRankCtx(ctx, a, c)
	}
	return Included(a, c)
}
