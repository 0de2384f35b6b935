// Package graph provides the directed-graph algorithms shared by the
// automata, fairness, sampling and transition-system packages. All of
// them run on one successor form, the compressed-sparse-row CSR:
// Tarjan's strongly-connected-components decomposition (iterative, so
// deep systems do not overflow the stack), forward and backward
// reachability, bottom-SCC analysis, vertex restriction and
// shortest-path extraction.
package graph

import (
	"context"

	"relive/internal/interrupt"
)

// CSR is a compressed-sparse-row adjacency list: the successors of
// vertex v are Dst[Off[v]:Off[v+1]]. It is the one successor form of
// the graph algorithms, so their inner loops walk flat arrays.
// Duplicate edges are tolerated.
type CSR struct {
	Off []int32
	Dst []int32
}

// NumVertices returns the number of vertices of the graph.
func (g CSR) NumVertices() int { return len(g.Off) - 1 }

// Succ returns the successor slice of v (shared, do not mutate).
func (g CSR) Succ(v int) []int32 { return g.Dst[g.Off[v]:g.Off[v+1]] }

// Restrict returns the subgraph induced by the vertices keep marks, on
// the same vertex ids: a kept vertex keeps its kept successors in row
// order, and every other vertex has none.
func (g CSR) Restrict(keep []bool) CSR {
	n := g.NumVertices()
	off := make([]int32, n+1)
	var dst []int32
	for v := 0; v < n; v++ {
		if keep[v] {
			for _, w := range g.Succ(v) {
				if keep[w] {
					dst = append(dst, w)
				}
			}
		}
		off[v+1] = int32(len(dst))
	}
	return CSR{Off: off, Dst: dst}
}

// Reverse returns the reversed graph, built in O(V+E).
func (g CSR) Reverse() CSR {
	n := g.NumVertices()
	off := make([]int32, n+1)
	for _, w := range g.Dst {
		off[w+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	dst := make([]int32, len(g.Dst))
	next := make([]int32, n)
	copy(next, off[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Succ(v) {
			dst[next[w]] = int32(v)
			next[w]++
		}
	}
	return CSR{Off: off, Dst: dst}
}

// SCCs returns the strongly connected components of g in reverse
// topological order (every edge leaving a component points to a
// component earlier in the returned slice). Roots are taken in vertex
// order and successors in row order. Components are Tarjan components:
// singletons without self-loops are "trivial" components.
func SCCs(g CSR) [][]int {
	const unvisited = -1
	n := g.NumVertices()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		comps   [][]int
		counter int
	)

	type frame struct {
		v    int
		next int32
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack := []frame{{v: root, next: -1}}
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.next < 0 {
				index[f.v] = counter
				low[f.v] = counter
				counter++
				stack = append(stack, f.v)
				onStack[f.v] = true
				f.next = 0
			}
			succ := g.Succ(f.v)
			advanced := false
			for int(f.next) < len(succ) {
				w := int(succ[f.next])
				f.next++
				if index[w] == unvisited {
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
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				comps = append(comps, comp)
			}
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
		}
	}
	return comps
}

// ComponentOf returns, for each vertex, the index of its component in the
// slice returned by SCCs.
func ComponentOf(n int, comps [][]int) []int {
	comp := make([]int, n)
	for ci, c := range comps {
		for _, v := range c {
			comp[v] = ci
		}
	}
	return comp
}

// IsTrivialSCC reports whether comp is a single vertex without a
// self-loop, i.e. carries no cycle.
func IsTrivialSCC(comp []int, g CSR) bool {
	if len(comp) > 1 {
		return false
	}
	v := comp[0]
	for _, w := range g.Succ(v) {
		if int(w) == v {
			return false
		}
	}
	return true
}

// Reachable returns the set of vertices reachable from the given sources
// (including the sources themselves).
func Reachable(g CSR, sources []int) []bool {
	seen, _ := ReachableCtx(nil, g, sources)
	return seen
}

// ReachableCtx is Reachable with a cooperative cancellation checkpoint
// inside the BFS loop: when ctx is cancelled the expansion stops and
// the context's error is returned. A nil ctx never cancels.
func ReachableCtx(ctx context.Context, g CSR, sources []int) ([]bool, error) {
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for _, s := range sources {
		if s >= 0 && s < n && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	var tick interrupt.Tick
	for qi := 0; qi < len(queue); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, err
		}
		for _, w := range g.Succ(queue[qi]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, int(w))
			}
		}
	}
	return seen, nil
}

// CoReachable returns the set of vertices from which some target
// vertex is reachable: one O(V+E) pass over the reversed graph.
func CoReachable(g CSR, targets []bool) []bool {
	rev := g.Reverse()
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if targets[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, w := range rev.Succ(queue[qi]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, int(w))
			}
		}
	}
	return seen
}

// BottomSCCs returns the components (in SCCs order) out of which no
// edge leaves, restricted to components reachable from sources. In a
// finite system whose every state has a successor, the strongly fair
// runs are exactly the runs whose infinity set is such a bottom
// component.
func BottomSCCs(g CSR, sources []int) [][]int {
	comps := SCCs(g)
	compOf := ComponentOf(g.NumVertices(), comps)
	reach := Reachable(g, sources)
	var bottoms [][]int
	for ci, c := range comps {
		if !reach[c[0]] {
			continue
		}
		isBottom := true
		for _, v := range c {
			for _, w := range g.Succ(v) {
				if compOf[w] != ci {
					isBottom = false
					break
				}
			}
			if !isBottom {
				break
			}
		}
		if isBottom {
			bottoms = append(bottoms, c)
		}
	}
	return bottoms
}

// ShortestPath returns a shortest path (as a vertex sequence, inclusive
// of both endpoints) from any source to any vertex satisfying goal, or
// nil when no such vertex is reachable. Sources are tried in order, and
// the BFS takes successors in row order.
func ShortestPath(g CSR, sources []int, goal func(v int) bool) []int {
	n := g.NumVertices()
	parent := make([]int, n)
	seen := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	var queue []int
	for _, s := range sources {
		if s < 0 || s >= n || seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue, s)
		if goal(s) {
			return []int{s}
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w32 := range g.Succ(v) {
			w := int(w32)
			if seen[w] {
				continue
			}
			seen[w] = true
			parent[w] = v
			if goal(w) {
				var path []int
				for u := w; u != -1; u = parent[u] {
					path = append(path, u)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}
