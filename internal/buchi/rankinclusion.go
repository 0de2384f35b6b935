package buchi

import (
	"context"
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
	"relive/internal/word"
)

// This file implements the lazy route for Büchi inclusion and
// universality: instead of eagerly materializing the full rank-based
// complement (Complement) and then intersecting, the complement is a
// successor-function view — configurations interned on first visit,
// per-(configuration, symbol) successor lists memoized — and the
// product emptiness search pulls transitions on demand. The search is
// the same lazily-expanded Tarjan with accepting-SCC early exit as
// emptiness.go, so when L_ω(a) ⊈ L_ω(c) the exploration stops at the
// first counterexample cycle having touched only the complement states
// the search actually reached; the eager route pays for the whole
// 2^O(n log n) complement up front either way. Both routes enumerate
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

// rankExplorer is emptiness.go's explorer with the right-hand operand
// replaced by a rankView: the lazily expanded two-track product of a
// and the lazy complement of c, searched by the same iterative Tarjan.
type rankExplorer struct {
	a     *Buchi
	v     *rankView
	ca    *compiled
	syms  int
	plain bool // a all-accepting: acceptance = both accepting, no track

	index  map[pkey]int32
	states []pkey
	acc    []bool
	edges  [][]pedge
	parent []int32
	psym   []alphabet.Symbol
}

func newRankExplorer(a, c *Buchi) *rankExplorer {
	return &rankExplorer{
		a:     a,
		v:     newRankView(c),
		ca:    a.compiled(),
		syms:  a.ab.Size(),
		plain: a.allAccepting(),
		index: make(map[pkey]int32),
	}
}

func (e *rankExplorer) intern(k pkey) int32 {
	if id, ok := e.index[k]; ok {
		return id
	}
	id := int32(len(e.states))
	e.index[k] = id
	e.states = append(e.states, k)
	if e.plain {
		e.acc = append(e.acc, e.a.accepting[k.x] && e.v.acc[k.y])
	} else {
		e.acc = append(e.acc, k.track == 1 && e.v.acc[k.y])
	}
	e.edges = append(e.edges, nil)
	e.parent = append(e.parent, -1)
	e.psym = append(e.psym, alphabet.Epsilon)
	return id
}

func (e *rankExplorer) expand(id int32) ([]pedge, error) {
	if e.edges[id] != nil {
		return e.edges[id], nil
	}
	k := e.states[id]
	track := k.track
	if !e.plain {
		if track == 0 && e.a.accepting[k.x] {
			track = 1
		} else if track == 1 && e.v.acc[k.y] {
			track = 0
		}
	}
	out := []pedge{}
	for sym := 1; sym <= e.syms; sym++ {
		xs := e.ca.row(State(k.x), alphabet.Symbol(sym))
		if len(xs) == 0 {
			continue
		}
		ys, err := e.v.successors(k.y, alphabet.Symbol(sym))
		if err != nil {
			return nil, err
		}
		for _, x := range xs {
			for _, y := range ys {
				to := e.intern(pkey{x, y, track})
				out = append(out, pedge{to: to, sym: alphabet.Symbol(sym)})
			}
		}
	}
	e.edges[id] = out
	return out, nil
}

// search is explorer.search over the errorable lazy expansion.
func (e *rankExplorer) search(ctx context.Context) ([]int32, error) {
	const unvisited = -1
	var (
		index, low []int32
		onStack    []bool
		stack      []int32
		counter    int32
		tick       interrupt.Tick
	)
	ensure := func(id int32) {
		for int32(len(index)) <= id {
			index = append(index, unvisited)
			low = append(low, 0)
			onStack = append(onStack, false)
		}
	}

	type frame struct {
		v    int32
		next int32
	}
	cinit := e.v.initialCfg()
	var roots []int32
	for _, x := range e.a.initial {
		roots = append(roots, e.intern(pkey{int32(x), cinit, 0}))
	}
	for _, root := range roots {
		ensure(root)
		if index[root] != unvisited {
			continue
		}
		callStack := []frame{{v: root, next: -1}}
		for len(callStack) > 0 {
			if err := tick.Poll(ctx); err != nil {
				return nil, err
			}
			f := &callStack[len(callStack)-1]
			if f.next < 0 {
				ensure(f.v)
				index[f.v] = counter
				low[f.v] = counter
				counter++
				stack = append(stack, f.v)
				onStack[f.v] = true
				f.next = 0
			}
			succ, err := e.expand(f.v)
			if err != nil {
				return nil, err
			}
			advanced := false
			for int(f.next) < len(succ) {
				edge := succ[f.next]
				f.next++
				w := edge.to
				ensure(w)
				if index[w] == unvisited {
					e.parent[w] = f.v
					e.psym[w] = edge.sym
					callStack = append(callStack, frame{v: w, next: -1})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[f.v] == index[f.v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				if acceptingComponent(e.edges, e.acc, comp) {
					return comp, nil
				}
			}
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return nil, nil
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
	e := newRankExplorer(a, c)
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
	return false, lassoWitness(e.edges, e.acc, e.parent, e.psym, comp), nil
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
// autoRankMin states, the eager Complement-then-IntersectLasso route
// (Included) below.
func IncludedKernelCtx(ctx context.Context, a, c *Buchi) (bool, word.Lasso, error) {
	if ResolveKernel(c) == "antichain" {
		return IncludedRankCtx(ctx, a, c)
	}
	return Included(a, c)
}
