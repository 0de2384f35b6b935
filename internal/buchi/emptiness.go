package buchi

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
	"relive/internal/obs"
	"relive/internal/word"
)

// This file implements the lazy product search behind on-the-fly
// emptiness of the intersection L_ω(a) ∩ L_ω(c) and behind the lazy
// rank route of Büchi inclusion (rankinclusion.go): the two-track
// product of a with a right operand is explored lazily while an
// iterative Tarjan SCC search runs on top of it, stopping at the first
// nontrivial strongly connected component that contains an accepting
// product state. The right operand is either a compiled Büchi automaton
// c or the lazy rank-based complement of c; only the successors and
// acceptance of its states differ. Call sites that previously
// materialized IntersectCtx(ctx, a, c) solely to ask IsEmpty (the
// decision procedures' dominant pattern) avoid building — and then
// reducing — product states the search never visits, and stop early on
// non-empty products.
//
// Witness extraction reuses the exploration: when the accepting SCC
// pops, all of its members are fully expanded, so the lasso prefix is
// the DFS parent chain of an accepting member and the cycle is a BFS
// inside the component.

// pkey identifies a product state, in the lazy explorer here and in
// the eager product (intersect): a pair of operand states plus the
// track bit of the standard two-track Büchi intersection. In "plain"
// mode the track stays 0.
type pkey struct {
	x, y  int32
	track uint8
}

// pedge is one expanded product transition.
type pedge struct {
	to  int32
	sym alphabet.Symbol
}

// rightOperand is the right-hand side of the lazy product.
type rightOperand interface {
	// successors returns the successors of y on sym. A lazily built
	// operand fails when it outgrows its state budget.
	successors(y int32, sym alphabet.Symbol) ([]int32, error)
	accepting(y int32) bool
}

// buchiOperand is a Büchi automaton as the right operand, read from its
// compiled (CSR) form.
type buchiOperand struct {
	c   *compiled
	acc []bool
}

func (r buchiOperand) successors(y int32, sym alphabet.Symbol) ([]int32, error) {
	return r.c.row(State(y), sym), nil
}

func (r buchiOperand) accepting(y int32) bool { return r.acc[y] }

// explorer is the lazy product automaton of a and a right operand:
// states are interned on first visit and their outgoing edges computed
// once.
type explorer struct {
	a     *Buchi
	ca    *compiled
	right rightOperand
	roots []pkey
	syms  int
	plain bool // acceptance = both accepting; no track flipping

	index  map[pkey]int32
	states []pkey
	acc    []bool // product-state acceptance
	edges  [][]pedge
	parent []int32 // DFS tree parent, -1 for roots
	psym   []alphabet.Symbol
}

// newExplorer returns the product of a with right, searched from the
// given root pairs. plain selects the one-track product, whose states
// accept when both components do.
func newExplorer(a *Buchi, right rightOperand, roots []pkey, plain bool) *explorer {
	return &explorer{
		a:     a,
		ca:    a.compiled(),
		right: right,
		roots: roots,
		syms:  a.ab.Size(),
		plain: plain,
		index: make(map[pkey]int32),
	}
}

func (e *explorer) intern(k pkey) int32 {
	if id, ok := e.index[k]; ok {
		return id
	}
	id := int32(len(e.states))
	e.index[k] = id
	e.states = append(e.states, k)
	if e.plain {
		e.acc = append(e.acc, e.a.accepting[k.x] && e.right.accepting(k.y))
	} else {
		e.acc = append(e.acc, k.track == 1 && e.right.accepting(k.y))
	}
	e.edges = append(e.edges, nil)
	e.parent = append(e.parent, -1)
	e.psym = append(e.psym, alphabet.Epsilon)
	return id
}

// expand computes (once) the outgoing edges of product state id.
func (e *explorer) expand(id int32) ([]pedge, error) {
	if e.edges[id] != nil {
		return e.edges[id], nil
	}
	k := e.states[id]
	track := k.track
	if !e.plain {
		if track == 0 && e.a.accepting[k.x] {
			track = 1
		} else if track == 1 && e.right.accepting(k.y) {
			track = 0
		}
	}
	out := []pedge{}
	for sym := 1; sym <= e.syms; sym++ {
		xs := e.ca.row(State(k.x), alphabet.Symbol(sym))
		if len(xs) == 0 {
			continue
		}
		ys, err := e.right.successors(k.y, alphabet.Symbol(sym))
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

// search runs Tarjan over the lazily expanded product, returning the
// members of the first nontrivial SCC containing an accepting state, or
// nil when the product has none. Exploration stops as soon as the
// component is found, when the right operand fails, or — with a non-nil
// ctx — as soon as the context is cancelled, which is the cooperative
// cancellation checkpoint of the search loop.
func (e *explorer) search(ctx context.Context) ([]int32, error) {
	const unvisited = -1
	var (
		index, low []int32
		onStack    []bool
		stack      []int32
		counter    int32
		tick       interrupt.Tick
	)
	// Grow the per-state Tarjan arrays in step with interning.
	ensure := func(id int32) {
		for int32(len(index)) <= id {
			index = append(index, unvisited)
			low = append(low, 0)
			onStack = append(onStack, false)
		}
	}

	type frame struct {
		v    int32
		next int32 // -1: not yet numbered
	}
	roots := make([]int32, len(e.roots))
	for i, k := range e.roots {
		roots[i] = e.intern(k)
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
				if e.acceptingComponent(comp) {
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

// acceptingComponent reports whether comp is nontrivial (carries a
// cycle) and contains an accepting product state.
func (e *explorer) acceptingComponent(comp []int32) bool {
	hasAcc := false
	for _, v := range comp {
		if e.acc[v] {
			hasAcc = true
			break
		}
	}
	if !hasAcc {
		return false
	}
	if len(comp) > 1 {
		return true
	}
	v := comp[0]
	for _, edge := range e.edges[v] {
		if edge.to == v {
			return true
		}
	}
	return false
}

// lasso builds an accepting lasso from a found component: the DFS
// parent chain of an accepting member is the prefix, a BFS inside the
// (fully expanded, strongly connected) component yields the cycle.
func (e *explorer) lasso(comp []int32) word.Lasso {
	target := comp[0]
	for _, v := range comp {
		if e.acc[v] {
			target = v
			break
		}
	}
	var prefix word.Word
	for v := target; e.parent[v] != -1; v = e.parent[v] {
		prefix = append(prefix, e.psym[v])
	}
	for l, r := 0, len(prefix)-1; l < r; l, r = l+1, r-1 {
		prefix[l], prefix[r] = prefix[r], prefix[l]
	}
	return word.MustLasso(prefix, sccCycleWord(e.edges, target, comp))
}

// sccCycleWord returns the label word of a shortest nonempty cycle
// through target inside its strongly connected component.
func sccCycleWord(edges [][]pedge, target int32, comp []int32) word.Word {
	inComp := make(map[int32]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	for _, edge := range edges[target] {
		if edge.to == target {
			return word.Word{edge.sym}
		}
	}
	type centry struct {
		v      int32
		parent int32
		sym    alphabet.Symbol
	}
	var q []centry
	seen := make(map[int32]bool, len(comp))
	for _, edge := range edges[target] {
		if inComp[edge.to] && !seen[edge.to] {
			seen[edge.to] = true
			q = append(q, centry{v: edge.to, parent: -1, sym: edge.sym})
		}
	}
	for qi := 0; qi < len(q); qi++ {
		cur := q[qi]
		for _, edge := range edges[cur.v] {
			if edge.to == target {
				w := word.Word{edge.sym}
				for j := int32(qi); j != -1; j = q[j].parent {
					w = append(w, q[j].sym)
				}
				for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
					w[l], w[r] = w[r], w[l]
				}
				return w
			}
			if inComp[edge.to] && !seen[edge.to] {
				seen[edge.to] = true
				q = append(q, centry{v: edge.to, parent: int32(qi), sym: edge.sym})
			}
		}
	}
	// Unreachable: a nontrivial SCC has a cycle through every member.
	panic("buchi: no cycle through SCC member")
}

// intersectLasso is the shared engine behind the exported emptiness
// entry points. ainit/cinit override the operands' initial states (nil
// means use their own), which lets the decision procedures ask about
// restarted automata without cloning them. It returns the number of
// product states explored for instrumentation. A non-nil ctx is polled
// inside the search; its error aborts the exploration.
func intersectLasso(ctx context.Context, a, c *Buchi, ainit, cinit []State) (word.Lasso, int, bool, error) {
	if ainit == nil {
		ainit = a.initial
	}
	if cinit == nil {
		cinit = c.initial
	}
	if len(ainit) == 0 || len(cinit) == 0 || a.NumStates() == 0 || c.NumStates() == 0 {
		return word.Lasso{}, 0, false, nil
	}
	roots := make([]pkey, 0, len(ainit)*len(cinit))
	for _, x := range ainit {
		for _, y := range cinit {
			roots = append(roots, pkey{x: int32(x), y: int32(y)})
		}
	}
	e := newExplorer(a, buchiOperand{c: c.compiled(), acc: c.accepting}, roots, a.allAccepting() || c.allAccepting())
	comp, err := e.search(ctx)
	if err != nil {
		return word.Lasso{}, len(e.states), false, err
	}
	if comp == nil {
		return word.Lasso{}, len(e.states), false, nil
	}
	return e.lasso(comp), len(e.states), true, nil
}

// IntersectLassoCtx returns an ultimately periodic word accepted by
// both a and c, or ok=false when L_ω(a) ∩ L_ω(c) = ∅. It finds a lasso
// of the product IntersectCtx builds, but explores the product on the
// fly and stops at the first accepting cycle.
//
// The exploration polls ctx at a cooperative cancellation checkpoint; a
// nil ctx never cancels, and then the error is always nil. When ctx
// carries a recorder (obs.ContextWithRecorder), the search is reported
// as a "buchi.IntersectEmpty" span with the number of product states it
// explored, and counted in "buchi.emptiness.calls".
func IntersectLassoCtx(ctx context.Context, a, c *Buchi) (word.Lasso, bool, error) {
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "buchi.IntersectEmpty").
		Int("left_states", int64(a.NumStates())).
		Int("right_states", int64(c.NumStates()))
	l, explored, ok, err := intersectLasso(ctx, a, c, nil, nil)
	sp.Int("explored_states", int64(explored))
	if err != nil {
		sp.Tag("aborted", "context").End()
		return word.Lasso{}, false, err
	}
	empty := int64(1)
	if ok {
		empty = 0
	}
	sp.Int("empty", empty)
	obs.Count(rec, "buchi.emptiness.calls", 1)
	sp.End()
	return l, ok, nil
}

// IntersectEmpty reports whether L_ω(a) ∩ L_ω(c) is empty, without
// materializing the product.
func IntersectEmpty(a, c *Buchi) bool {
	_, _, ok, _ := intersectLasso(nil, a, c, nil, nil)
	return !ok
}

// IntersectEmptyFrom is IntersectEmpty with the exploration started
// from the given operand states instead of the automata's initial
// states. Decision procedures that ask "is the intersection empty when
// both automata restart from configuration (p, q)?" use this in place
// of cloning and re-rooting the operands per configuration.
func IntersectEmptyFrom(a, c *Buchi, ainit, cinit []State) bool {
	_, _, ok, _ := intersectLasso(nil, a, c, ainit, cinit)
	return !ok
}
