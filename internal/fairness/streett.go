package fairness

import (
	"context"
	"errors"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/ts"
)

// Kind selects a fairness notion.
type Kind int

// Fairness notions for ExistsFairRun.
const (
	Strong Kind = iota + 1
	Weak
)

// ExistsFairRun reports whether the system has a fair (per kind) run
// whose action word is accepted by prop. It returns a witness run when
// one exists.
//
// Fairness is evaluated on the trimmed system: the system is trimmed
// before the search, so transitions into dead-end states (which no
// infinite run can take) and transitions of unreachable states impose
// no fairness obligations. Run.IsStronglyFair and Run.IsWeaklyFair use
// the same convention, so witnesses always validate against it.
//
// The search works on the product of the trimmed system's edge graph
// with prop: a vertex means "the system just took edge e and prop is in
// state b". Strong transition fairness is a Streett condition — one
// pair per system edge t, with E_t = vertices at t's source state and
// F_t = vertices that just took t — plus the Büchi pair (all vertices,
// prop accepting). Emptiness uses the classic SCC-restriction
// algorithm: an SCC violating a pair is shrunk by removing that pair's
// E-vertices and re-decomposed. A fair lasso is then stitched through
// one witness SCC and mapped back to the original system's states.
func ExistsFairRun(sys *ts.System, prop *buchi.Buchi, kind Kind) (Run, bool, error) {
	return ExistsFairRunCtx(nil, sys, prop, kind)
}

// ExistsFairRunCtx is ExistsFairRun with cooperative cancellation
// checkpoints in the trim and the product exploration. A nil ctx never
// cancels; a context error is returned as-is (wrapped), never conflated
// with the "no fair run" verdict.
func ExistsFairRunCtx(ctx context.Context, sys *ts.System, prop *buchi.Buchi, kind Kind) (Run, bool, error) {
	if sys.Initial() < 0 {
		return Run{}, false, fmt.Errorf("fairness: system has no initial state")
	}
	if kind != Strong && kind != Weak {
		return Run{}, false, fmt.Errorf("fairness: unknown fairness kind %d", int(kind))
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Run{}, false, fmt.Errorf("fairness: %w", err)
		}
	}
	// Trim first: fairness obligations come from the trimmed system only.
	trimmed, err := sys.TrimCtx(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Run{}, false, fmt.Errorf("fairness: %w", err)
		}
		return Run{}, false, nil // no infinite behavior: no infinite run at all
	}
	p, err := buildProduct(ctx, trimmed, prop)
	if err != nil || len(p.verts) == 0 {
		return Run{}, false, err
	}
	reach := graph.Reachable(p.g, p.initVerts)
	comp, ok := findFairSCCWithin(p.g, reach, func(comp []int) (bool, []int) {
		return p.analyzeSCC(comp, kind)
	})
	if !ok {
		return Run{}, false, nil
	}
	return mapRunByName(p.stitchRun(comp), trimmed, sys), true, nil
}

// mapRunByName rewrites a run over the trimmed system into the original
// system's state identifiers. Trimming preserves state names, so the
// lookup is total on witness runs.
func mapRunByName(r Run, trimmed, orig *ts.System) Run {
	conv := func(es []ts.Edge) []ts.Edge {
		if es == nil {
			return nil
		}
		out := make([]ts.Edge, len(es))
		for i, e := range es {
			from, _ := orig.LookupState(trimmed.StateName(e.From))
			to, _ := orig.LookupState(trimmed.StateName(e.To))
			out[i] = ts.Edge{From: from, Sym: e.Sym, To: to}
		}
		return out
	}
	return Run{Prefix: conv(r.Prefix), Loop: conv(r.Loop)}
}

// product is the exploration graph of (system edge, property state)
// vertices.
type product struct {
	prop      *buchi.Buchi
	edges     []ts.Edge
	verts     []prodVertex
	g         graph.CSR // vertex i's successors, in expansion order
	initVerts []int
}

type prodVertex struct {
	e int // index into edges: the system edge just taken
	b buchi.State
}

func buildProduct(ctx context.Context, sys *ts.System, prop *buchi.Buchi) (*product, error) {
	p := &product{prop: prop, edges: sys.Edges(), g: graph.CSR{Off: []int32{0}}}
	if len(p.edges) == 0 {
		return p, nil
	}
	// Edges is grouped by source: state s's outgoing edges are
	// p.edges[out[s]:out[s+1]].
	out := make([]int32, sys.NumStates()+1)
	for _, e := range p.edges {
		out[e.From+1]++
	}
	for s := 1; s < len(out); s++ {
		out[s] += out[s-1]
	}
	index := map[prodVertex]int32{}
	intern := func(k prodVertex) int32 {
		if i, ok := index[k]; ok {
			return i
		}
		i := int32(len(p.verts))
		p.verts = append(p.verts, k)
		index[k] = i
		return i
	}
	init := sys.Initial()
	for ei := out[init]; ei < out[init+1]; ei++ {
		for _, b0 := range prop.Initial() {
			for _, b1 := range prop.Succ(b0, p.edges[ei].Sym) {
				p.initVerts = append(p.initVerts, int(intern(prodVertex{int(ei), b1})))
			}
		}
	}
	// The BFS expands vertices in interning order, so vertex vi's row
	// is the next one appended to the CSR.
	var tick interrupt.Tick
	for vi := 0; vi < len(p.verts); vi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, fmt.Errorf("fairness: %w", err)
		}
		s := p.edges[p.verts[vi].e].To
		for ei := out[s]; ei < out[s+1]; ei++ {
			for _, b1 := range prop.Succ(p.verts[vi].b, p.edges[ei].Sym) {
				p.g.Dst = append(p.g.Dst, intern(prodVertex{int(ei), b1}))
			}
		}
		p.g.Off = append(p.g.Off, int32(len(p.g.Dst)))
	}
	return p, nil
}

// analyzeSCC decides whether the component supports a fair accepted
// run. For a repairable strong-fairness violation it returns the
// E-vertices to remove before re-decomposing; otherwise nil.
func (p *product) analyzeSCC(comp []int, kind Kind) (bool, []int) {
	hasAccepting := false
	statesVisited := map[ts.State]bool{}
	edgesTaken := map[int]bool{}
	for _, v := range comp {
		k := p.verts[v]
		if p.prop.Accepting(k.b) {
			hasAccepting = true
		}
		statesVisited[p.edges[k.e].To] = true
		edgesTaken[k.e] = true
	}
	if !hasAccepting {
		return false, nil // removing vertices cannot create acceptance
	}
	switch kind {
	case Strong:
		var removeE []int
		for ti, t := range p.edges {
			if statesVisited[t.From] && !edgesTaken[ti] {
				// Streett pair for t violated: E_t ∩ C ≠ ∅, F_t ∩ C = ∅.
				for _, v := range comp {
					if p.edges[p.verts[v].e].To == t.From {
						removeE = append(removeE, v)
					}
				}
			}
		}
		if len(removeE) == 0 {
			return true, nil
		}
		return false, removeE
	case Weak:
		if len(statesVisited) > 1 {
			return true, nil // nothing is continuously enabled
		}
		var only ts.State
		for s := range statesVisited {
			only = s
		}
		for ti, t := range p.edges {
			if t.From == only && !edgesTaken[ti] {
				return false, nil // continuously enabled yet never taken
			}
		}
		return true, nil
	}
	return false, nil
}

// findFairSCCWithin searches the subgraph of g induced by within for an
// SCC accepted by analyze, recursing on shrunken components as directed.
func findFairSCCWithin(g graph.CSR, within []bool, analyze func([]int) (bool, []int)) ([]int, bool) {
	restricted := g.Restrict(within)
	for _, comp := range graph.SCCs(restricted) {
		if !within[comp[0]] || graph.IsTrivialSCC(comp, restricted) {
			continue
		}
		ok, removeE := analyze(comp)
		if ok {
			return comp, true
		}
		if len(removeE) == 0 {
			continue
		}
		sub := make([]bool, g.NumVertices())
		for _, v := range comp {
			sub[v] = true
		}
		for _, v := range removeE {
			sub[v] = false
		}
		if res, found := findFairSCCWithin(g, sub, analyze); found {
			return res, true
		}
	}
	return nil, false
}

// stitchRun builds a fair lasso: a prefix from an initial vertex to the
// component, then a loop visiting every component vertex (covering all
// edge obligations and an accepting vertex) and closing.
func (p *product) stitchRun(comp []int) Run {
	inComp := make([]bool, len(p.verts))
	for _, v := range comp {
		inComp[v] = true
	}
	inside := p.g.Restrict(inComp)
	entry := comp[0]
	prefixPath := graph.ShortestPath(p.g, p.initVerts, func(v int) bool { return v == entry })
	var loop []int
	cur := entry
	remaining := map[int]bool{}
	for _, v := range comp {
		if v != entry {
			remaining[v] = true
		}
	}
	for len(remaining) > 0 {
		path := graph.ShortestPath(inside, []int{cur}, func(v int) bool { return remaining[v] })
		if len(path) < 2 {
			break // unreachable inside an SCC: cannot happen
		}
		for _, v := range path[1:] {
			loop = append(loop, v)
			delete(remaining, v)
		}
		cur = path[len(path)-1]
	}
	back := graph.ShortestPath(inside, []int{cur}, func(v int) bool { return v == entry })
	if len(back) > 1 {
		loop = append(loop, back[1:]...)
	} else if len(loop) == 0 {
		loop = append(loop, entry) // single vertex with a self-loop
	}
	toEdges := func(vs []int) []ts.Edge {
		out := make([]ts.Edge, len(vs))
		for i, v := range vs {
			out[i] = p.edges[p.verts[v].e]
		}
		return out
	}
	return Run{Prefix: toEdges(prefixPath), Loop: toEdges(loop)}
}
