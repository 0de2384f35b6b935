package ltl

import (
	"context"
	"math/bits"
	"slices"
	"strings"

	"relive/internal/buchi"
	"relive/internal/interrupt"
)

// TranslateBuchi translates a PLTL formula into a Büchi automaton over
// the letters of the labeling's alphabet: the automaton accepts exactly
// the ω-words x with x, λ ⊨ f. The construction is the classic
// Gerth–Peled–Vardi–Wolper tableau to a generalized Büchi automaton,
// followed by counter-based degeneralization. A letter a matches a
// tableau node when λ(a) contains all positive literals of the node and
// none of the negated ones. A node always expands the formula of New
// with the smallest key, so the automaton is a function of f and lab.
//
// The tableau can grow exponentially in the formula, so both the node
// expansion and the degeneralization poll ctx and stop with its error
// once it is done. A nil ctx never cancels.
func TranslateBuchi(ctx context.Context, f *Formula, lab *Labeling) (*buchi.Buchi, error) {
	nf := f.Normalize()
	t := &tableau{c: indexClosure(nf), ctx: ctx}
	if err := t.build(); err != nil {
		return nil, err
	}
	return t.toBuchi(lab, untilSubformulas(nf))
}

// TranslateNegation translates ¬f, the standard route to checking
// L ⊆ L(f) without Büchi complementation.
func TranslateNegation(ctx context.Context, f *Formula, lab *Labeling) (*buchi.Buchi, error) {
	return TranslateBuchi(ctx, Not(f), lab)
}

// untilSubformulas returns the Until subformulas of a normalized formula,
// one acceptance set each.
func untilSubformulas(f *Formula) []*Formula {
	seen := map[string]bool{}
	var out []*Formula
	var walk func(g *Formula)
	walk = func(g *Formula) {
		if g == nil || seen[g.Key()] {
			return
		}
		seen[g.Key()] = true
		if g.Op == OpUntil {
			out = append(out, g)
		}
		walk(g.Left)
		walk(g.Right)
	}
	walk(f)
	return out
}

// closure indexes the subformulas of a normalized formula once, in
// ascending Key() order, so that the tableau's formula sets are bitsets
// over the indices and "the smallest key in New" is New's lowest bit.
type closure struct {
	subs  []sub
	index map[string]int // Key() -> index
	root  int
	words int // words per bitset: ⌈len(subs)/64⌉
}

// sub is one subformula of a closure with the indices of its operands;
// an index is -1 where there is none.
type sub struct {
	f           *Formula
	left, right int
	comp        int // a literal's complement, when the closure holds it
}

func indexClosure(f *Formula) *closure {
	c := &closure{index: map[string]int{}}
	var forms []*Formula
	var walk func(g *Formula)
	walk = func(g *Formula) {
		if g == nil {
			return
		}
		if _, ok := c.index[g.Key()]; ok {
			return
		}
		c.index[g.Key()] = -1
		forms = append(forms, g)
		walk(g.Left)
		walk(g.Right)
	}
	walk(f)
	slices.SortFunc(forms, func(x, y *Formula) int { return strings.Compare(x.Key(), y.Key()) })
	for i, g := range forms {
		c.index[g.Key()] = i
	}
	c.subs = make([]sub, len(forms))
	c.words = (len(forms) + 63) / 64
	operand := func(g *Formula) int {
		if g == nil {
			return -1
		}
		return c.index[g.Key()]
	}
	for i, g := range forms {
		c.subs[i] = sub{f: g, left: operand(g.Left), right: operand(g.Right), comp: -1}
	}
	for i, s := range c.subs {
		if s.f.Op == OpNot { // normalized: s.left is an atom
			c.subs[i].comp, c.subs[s.left].comp = s.left, i
		}
	}
	c.root = c.index[f.Key()]
	return c
}

// Bitsets over closure indices.

func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func setBit(s []uint64, i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(s []uint64, i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }

// lowestBit returns the smallest member of s, or -1 when s is empty.
func lowestBit(s []uint64) int {
	for w, x := range s {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// tnode is a node under expansion. Its New, Old and Next sets share one
// backing array of 3·words words, which the node owns. It has exactly
// one predecessor, in: the closed node it succeeds, or initIn for the
// start node. Both halves of a split inherit it, and only closed nodes
// gain predecessors, when a node with the same (Old, Next) merges in.
type tnode struct {
	sets []uint64
	in   int32
}

// closedNode is a node whose New is empty, with its predecessors as a
// sorted slice of closed-node indices.
type closedNode struct {
	sets     []uint64
	incoming []int32
}

const initIn = -1

// tableau is the GPVW construction over a closure.
type tableau struct {
	c     *closure
	ctx   context.Context
	tick  interrupt.Tick
	nodes []closedNode // in closing order
	free  [][]uint64   // backing arrays of discarded nodes

	// A closed node is identified by its (Old, Next) bits. byHash maps
	// a hash of those bits to the last closed node with that hash, and
	// sameHash links each closed node to the one before it with the
	// same hash (-1 ends the chain).
	byHash   map[uint64]int32
	sameHash []int32
}

func (t *tableau) alloc() []uint64 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		clear(s)
		return s
	}
	return make([]uint64, 3*t.c.words)
}

func (t *tableau) discard(q tnode) { t.free = append(t.free, q.sets) }

// build runs the node expansion for the closure's root formula. The
// second half of each split waits on a stack while the first half, and
// every successor it closes, expands; so nodes are expanded, closed and
// numbered in the order of the recursive construction.
func (t *tableau) build() error {
	t.byHash = map[uint64]int32{}
	start := tnode{sets: t.alloc(), in: initIn}
	setBit(start.sets, t.c.root)
	stack := []tnode{start}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		var err error
		if stack, err = t.expand(q, stack[:len(stack)-1]); err != nil {
			return err
		}
	}
	return nil
}

// expand expands q until it is discarded or merges into a closed node,
// moving on to the successor of every node it closes as a new one. It
// returns the stack with the second halves of q's splits pushed.
func (t *tableau) expand(q tnode, stack []tnode) ([]tnode, error) {
	w := t.c.words
	for {
		if err := t.tick.Poll(t.ctx); err != nil {
			return nil, err
		}
		nw, old, next := q.sets[:w], q.sets[w:2*w], q.sets[2*w:]
		i := lowestBit(nw)
		if i < 0 {
			r, fresh := t.close(q)
			if !fresh {
				return stack, nil
			}
			q = tnode{sets: t.alloc(), in: r}
			copy(q.sets[:w], t.nodes[r].sets[2*w:])
			continue
		}
		clearBit(nw, i)
		s := &t.c.subs[i]
		switch s.f.Op {
		case OpFalse:
			t.discard(q)
			return stack, nil
		case OpTrue:
		case OpAtom, OpNot:
			if s.comp >= 0 && hasBit(old, s.comp) {
				t.discard(q)
				return stack, nil
			}
			setBit(old, i)
		case OpAnd:
			if !hasBit(old, s.left) {
				setBit(nw, s.left)
			}
			if !hasBit(old, s.right) {
				setBit(nw, s.right)
			}
			setBit(old, i)
		case OpNext:
			setBit(old, i)
			setBit(next, s.left)
		case OpOr, OpUntil, OpRelease:
			q2 := tnode{sets: t.alloc(), in: q.in}
			copy(q2.sets, q.sets)
			nw2, old2, next2 := q2.sets[:w], q2.sets[w:2*w], q2.sets[2*w:]
			setBit(old, i)
			setBit(old2, i)
			// q continues as the first half:
			//   ξ ∨ ζ: ξ | ζ
			//   ξ U ζ ≡ ζ ∨ (ξ ∧ X(ξ U ζ)): ζ | ξ, X(ξ U ζ)
			//   ξ R ζ ≡ (ζ ∧ ξ) ∨ (ζ ∧ X(ξ R ζ)): ξ, ζ | ζ, X(ξ R ζ)
			var first, second int
			switch s.f.Op {
			case OpOr:
				first, second = s.left, s.right
			case OpUntil:
				first, second = s.right, s.left
				setBit(next2, i)
			default:
				if !hasBit(old, s.left) {
					setBit(nw, s.left)
				}
				first, second = s.right, s.right
				setBit(next2, i)
			}
			if !hasBit(old, first) {
				setBit(nw, first)
			}
			if !hasBit(old2, second) {
				setBit(nw2, second)
			}
			stack = append(stack, q2)
		default:
			panic("ltl: non-normalized formula reached the tableau")
		}
	}
}

// close files q, whose New is empty, under its (Old, Next) pair. It
// reports the closed node's index and whether q is a new node; a q
// that matches an earlier node adds its predecessor to that node's.
func (t *tableau) close(q tnode) (int32, bool) {
	w := t.c.words
	id := q.sets[w:]
	var h uint64
	for _, x := range id {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	head, ok := t.byHash[h]
	if !ok {
		head = -1
	}
	for r := head; r >= 0; r = t.sameHash[r] {
		if slices.Equal(t.nodes[r].sets[w:], id) {
			inc := t.nodes[r].incoming
			if i, found := slices.BinarySearch(inc, q.in); !found {
				t.nodes[r].incoming = slices.Insert(inc, i, q.in)
			}
			t.discard(q)
			return r, false
		}
	}
	r := int32(len(t.nodes))
	t.nodes = append(t.nodes, closedNode{sets: q.sets, incoming: []int32{q.in}})
	t.sameHash = append(t.sameHash, head)
	t.byHash[h] = r
	return r, true
}

// toBuchi builds the degeneralized Büchi automaton from the tableau.
func (t *tableau) toBuchi(lab *Labeling, untils []*Formula) (*buchi.Buchi, error) {
	ab := lab.Alphabet()
	k := len(untils)
	w := t.c.words
	n := len(t.nodes)
	old := func(ni int) []uint64 { return t.nodes[ni].sets[w : 2*w] }

	// Acceptance sets: node ∈ F_u iff ζ ∈ old or u ∉ old. The constant
	// true is never stored in Old (it imposes no constraint), so ζ = true
	// counts as present.
	inF := make([]bool, n*k)
	for ui, u := range untils {
		self, right := t.c.index[u.Key()], t.c.index[u.Right.Key()]
		rightTrue := u.Right.Op == OpTrue
		for ni := 0; ni < n; ni++ {
			inF[ni*k+ui] = rightTrue || hasBit(old(ni), right) || !hasBit(old(ni), self)
		}
	}

	// Letter rows: bit si of a node's row is set when letter syms[si]
	// matches the node. Each literal's row is resolved once; a node's
	// row is the AND over the literals in its Old set.
	syms := ab.Symbols()
	lw := (len(syms) + 63) / 64
	all := make([]uint64, lw)
	for si := range syms {
		setBit(all, si)
	}
	litRows := make([][]uint64, len(t.c.subs))
	for i, s := range t.c.subs {
		if s.f.Op != OpAtom {
			continue
		}
		pos, neg := make([]uint64, lw), slices.Clone(all)
		for si, a := range syms {
			if lab.Has(a, s.f.Name) {
				setBit(pos, si)
				clearBit(neg, si)
			}
		}
		litRows[i] = pos
		if s.comp >= 0 {
			litRows[s.comp] = neg
		}
	}
	letters := make([]uint64, n*lw)
	for ni := 0; ni < n; ni++ {
		row := letters[ni*lw : (ni+1)*lw]
		copy(row, all)
		for wi, x := range old(ni) {
			for x != 0 {
				i := wi<<6 + bits.TrailingZeros64(x)
				x &= x - 1
				if lr := litRows[i]; lr != nil {
					for j := range row {
						row[j] &= lr[j]
					}
				}
			}
		}
	}

	// Edges of the GBA: q -> r when q ∈ incoming(r); init -> r when
	// initIn ∈ incoming(r). Targets are listed in node order.
	succs := make([][]int32, n)
	var initSuccs []int32
	for ri := range t.nodes {
		for _, in := range t.nodes[ri].incoming {
			if in == initIn {
				initSuccs = append(initSuccs, int32(ri))
			} else {
				succs[in] = append(succs[in], int32(ri))
			}
		}
	}

	b := buchi.New(ab)
	addEdges := func(from buchi.State, ri int32, to buchi.State) {
		for wi, x := range letters[int(ri)*lw : (int(ri)+1)*lw] {
			for x != 0 {
				b.AddTransition(from, syms[wi<<6+bits.TrailingZeros64(x)], to)
				x &= x - 1
			}
		}
	}
	if k == 0 {
		// No Until subformulas: every infinite run is accepting. Node ni
		// is state ni, and the initial state comes after them.
		for ni := 0; ni < n; ni++ {
			b.AddState(true)
		}
		init := b.AddState(false)
		b.SetInitial(init)
		for _, ri := range initSuccs {
			addEdges(init, ri, buchi.State(ri))
		}
		for qi := 0; qi < n; qi++ {
			for _, ri := range succs[qi] {
				addEdges(buchi.State(qi), ri, buchi.State(ri))
			}
		}
		return b, nil
	}

	// Degeneralization: states (node, counter) with counter ∈ [0, k];
	// counter k is the "just wrapped" flag (semantically counter 0) and
	// is the Büchi acceptance. bump advances the counter when the target
	// node is in the currently awaited acceptance set.
	bump := func(counter int, target int32) int {
		v := counter
		if v == k {
			v = 0
		}
		if inF[int(target)*k+v] {
			v++
		}
		return v
	}
	type cfg struct {
		node    int32
		counter int
	}
	index := make([]buchi.State, n*(k+1)) // (node, counter) -> state + 1
	var queue []cfg
	intern := func(c cfg) buchi.State {
		slot := &index[int(c.node)*(k+1)+c.counter]
		if *slot == 0 {
			*slot = b.AddState(c.counter == k) + 1
			queue = append(queue, c)
		}
		return *slot - 1
	}
	init := b.AddState(false)
	b.SetInitial(init)
	for _, ri := range initSuccs {
		addEdges(init, ri, intern(cfg{node: ri, counter: bump(0, ri)}))
	}
	for qi := 0; qi < len(queue); qi++ {
		if err := t.tick.Poll(t.ctx); err != nil {
			return nil, err
		}
		c := queue[qi]
		from := index[int(c.node)*(k+1)+c.counter] - 1
		for _, ri := range succs[c.node] {
			addEdges(from, ri, intern(cfg{node: ri, counter: bump(c.counter, ri)}))
		}
	}
	return b, nil
}
