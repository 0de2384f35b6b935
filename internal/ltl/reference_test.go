package ltl_test

import (
	"sort"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
)

// referenceTranslate is the map-based Gerth–Peled–Vardi–Wolper tableau
// that ltl.TranslateBuchi replaced, kept as the contract of the indexed
// one: formula sets are maps keyed by Formula.Key, every split copies
// them, and a node always expands the formula of New with the smallest
// key. TestTranslateMatchesReference requires the two to build the same
// automaton byte for byte; the degeneralization below is the production
// one, transcribed.
func referenceTranslate(f *ltl.Formula, lab *ltl.Labeling) *buchi.Buchi {
	nf := f.Normalize()
	t := &refTableau{byKey: map[string]*refNode{}}
	start := &refNode{
		id:       t.freshID(),
		incoming: map[int]bool{refInitID: true},
		new:      refSet{},
		old:      refSet{},
		next:     refSet{},
	}
	start.new.add(nf)
	t.expand(start)
	return t.toBuchi(lab, refUntils(nf))
}

// refUntils returns the Until subformulas of a normalized formula in
// first-visit preorder, one acceptance set each.
func refUntils(f *ltl.Formula) []*ltl.Formula {
	seen := map[string]bool{}
	var out []*ltl.Formula
	var walk func(g *ltl.Formula)
	walk = func(g *ltl.Formula) {
		if g == nil || seen[g.Key()] {
			return
		}
		seen[g.Key()] = true
		if g.Op == ltl.OpUntil {
			out = append(out, g)
		}
		walk(g.Left)
		walk(g.Right)
	}
	walk(f)
	return out
}

// refSet is a set of formulas keyed canonically.
type refSet map[string]*ltl.Formula

func (s refSet) add(f *ltl.Formula)      { s[f.Key()] = f }
func (s refSet) has(f *ltl.Formula) bool { _, ok := s[f.Key()]; return ok }
func (s refSet) clone() refSet {
	c := make(refSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}
func (s refSet) key() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

type refNode struct {
	id       int
	incoming map[int]bool // predecessor node ids; refInitID denotes "init"
	new      refSet
	old      refSet
	next     refSet
}

type refTableau struct {
	nodes  []*refNode // closed nodes, in creation order
	byKey  map[string]*refNode
	nextID int
}

const refInitID = -1

func (t *refTableau) freshID() int {
	id := t.nextID
	t.nextID++
	return id
}

func (t *refTableau) expand(q *refNode) {
	if len(q.new) == 0 {
		k := q.old.key() + "|" + q.next.key()
		if r, ok := t.byKey[k]; ok {
			for in := range q.incoming {
				r.incoming[in] = true
			}
			return
		}
		t.nodes = append(t.nodes, q)
		t.byKey[k] = q
		succ := &refNode{
			id:       t.freshID(),
			incoming: map[int]bool{q.id: true},
			new:      q.next.clone(),
			old:      refSet{},
			next:     refSet{},
		}
		t.expand(succ)
		return
	}
	var f *ltl.Formula
	for k, v := range q.new {
		if f == nil || k < f.Key() {
			f = v
		}
	}
	delete(q.new, f.Key())

	switch f.Op {
	case ltl.OpFalse:
		return
	case ltl.OpTrue:
		t.expand(q)
	case ltl.OpAtom, ltl.OpNot:
		if q.old.has(refNegLiteral(f)) {
			return
		}
		q.old.add(f)
		t.expand(q)
	case ltl.OpAnd:
		if !q.old.has(f.Left) {
			q.new.add(f.Left)
		}
		if !q.old.has(f.Right) {
			q.new.add(f.Right)
		}
		q.old.add(f)
		t.expand(q)
	case ltl.OpOr:
		q1, q2 := t.split(q), t.split(q)
		q1.old.add(f)
		q2.old.add(f)
		if !q1.old.has(f.Left) {
			q1.new.add(f.Left)
		}
		if !q2.old.has(f.Right) {
			q2.new.add(f.Right)
		}
		t.expand(q1)
		t.expand(q2)
	case ltl.OpNext:
		q.old.add(f)
		q.next.add(f.Left)
		t.expand(q)
	case ltl.OpUntil:
		q1, q2 := t.split(q), t.split(q)
		q1.old.add(f)
		q2.old.add(f)
		if !q1.old.has(f.Right) {
			q1.new.add(f.Right)
		}
		if !q2.old.has(f.Left) {
			q2.new.add(f.Left)
		}
		q2.next.add(f)
		t.expand(q1)
		t.expand(q2)
	case ltl.OpRelease:
		q1, q2 := t.split(q), t.split(q)
		q1.old.add(f)
		q2.old.add(f)
		if !q1.old.has(f.Left) {
			q1.new.add(f.Left)
		}
		if !q1.old.has(f.Right) {
			q1.new.add(f.Right)
		}
		if !q2.old.has(f.Right) {
			q2.new.add(f.Right)
		}
		q2.next.add(f)
		t.expand(q1)
		t.expand(q2)
	default:
		panic("reference tableau: non-normalized formula")
	}
}

// split deep-copies q with a fresh id.
func (t *refTableau) split(q *refNode) *refNode {
	in := make(map[int]bool, len(q.incoming))
	for k, v := range q.incoming {
		in[k] = v
	}
	return &refNode{
		id:       t.freshID(),
		incoming: in,
		new:      q.new.clone(),
		old:      q.old.clone(),
		next:     q.next.clone(),
	}
}

func refNegLiteral(f *ltl.Formula) *ltl.Formula {
	if f.Op == ltl.OpNot {
		return f.Left
	}
	return ltl.Not(f)
}

func refMatches(old refSet, a alphabet.Symbol, lab *ltl.Labeling) bool {
	for _, f := range old {
		switch f.Op {
		case ltl.OpAtom:
			if !lab.Has(a, f.Name) {
				return false
			}
		case ltl.OpNot:
			if lab.Has(a, f.Left.Name) {
				return false
			}
		}
	}
	return true
}

// toBuchi degeneralizes the tableau with one counter over the
// acceptance sets. Edges are added target node by target node, so the
// order in which an incoming set is walked does not reach the output.
func (t *refTableau) toBuchi(lab *ltl.Labeling, untils []*ltl.Formula) *buchi.Buchi {
	ab := lab.Alphabet()
	k := len(untils)
	inF := make([][]bool, len(t.nodes))
	for ni, nd := range t.nodes {
		inF[ni] = make([]bool, k)
		for ui, u := range untils {
			inF[ni][ui] = nd.old.has(u.Right) || !nd.old.has(u) || u.Right.Op == ltl.OpTrue
		}
	}
	nodeIdx := map[int]int{}
	for ni, nd := range t.nodes {
		nodeIdx[nd.id] = ni
	}
	syms := ab.Symbols()
	letterOK := make([][]bool, len(t.nodes))
	for ni, nd := range t.nodes {
		letterOK[ni] = make([]bool, len(syms))
		for si, a := range syms {
			letterOK[ni][si] = refMatches(nd.old, a, lab)
		}
	}
	succs := make([][]int, len(t.nodes))
	var initSuccs []int
	for ri, r := range t.nodes {
		for in := range r.incoming {
			if in == refInitID {
				initSuccs = append(initSuccs, ri)
				continue
			}
			if qi, ok := nodeIdx[in]; ok {
				succs[qi] = append(succs[qi], ri)
			}
		}
	}

	b := buchi.New(ab)
	if k == 0 {
		states := make([]buchi.State, len(t.nodes))
		for ni := range t.nodes {
			states[ni] = b.AddState(true)
		}
		init := b.AddState(false)
		b.SetInitial(init)
		addEdges := func(from buchi.State, targets []int) {
			for _, ri := range targets {
				for si, ok := range letterOK[ri] {
					if ok {
						b.AddTransition(from, syms[si], states[ri])
					}
				}
			}
		}
		addEdges(init, initSuccs)
		for qi := range t.nodes {
			addEdges(states[qi], succs[qi])
		}
		return b
	}

	bump := func(counter int, target int) int {
		v := counter
		if v == k {
			v = 0
		}
		if inF[target][v] {
			v++
		}
		return v
	}
	type cfg struct{ node, counter int }
	index := map[cfg]buchi.State{}
	var queue []cfg
	intern := func(c cfg) buchi.State {
		if s, ok := index[c]; ok {
			return s
		}
		s := b.AddState(c.counter == k)
		index[c] = s
		queue = append(queue, c)
		return s
	}
	init := b.AddState(false)
	b.SetInitial(init)
	for _, ri := range initSuccs {
		s := intern(cfg{node: ri, counter: bump(0, ri)})
		for si, ok := range letterOK[ri] {
			if ok {
				b.AddTransition(init, syms[si], s)
			}
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		from := index[c]
		for _, ri := range succs[c.node] {
			to := intern(cfg{node: ri, counter: bump(c.counter, ri)})
			for si, ok := range letterOK[ri] {
				if ok {
					b.AddTransition(from, syms[si], to)
				}
			}
		}
	}
	return b
}
