package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// adjCSR is the graph on vertices 0..n-1 with the given successor
// lists, in CSR form.
func adjCSR(n int, edges map[int][]int) CSR {
	g := CSR{Off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		for _, w := range edges[v] {
			g.Dst = append(g.Dst, int32(w))
		}
		g.Off[v+1] = int32(len(g.Dst))
	}
	return g
}

func TestSCCsSimpleCycle(t *testing.T) {
	comps := SCCs(adjCSR(3, map[int][]int{0: {1}, 1: {2}, 2: {0}}))
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("SCCs = %v, want one component of size 3", comps)
	}
}

func TestSCCsChain(t *testing.T) {
	comps := SCCs(adjCSR(3, map[int][]int{0: {1}, 1: {2}}))
	if len(comps) != 3 {
		t.Fatalf("SCCs = %v, want three singletons", comps)
	}
	// Reverse topological order: sinks first.
	if comps[0][0] != 2 || comps[2][0] != 0 {
		t.Errorf("order not reverse-topological: %v", comps)
	}
}

func TestSCCsTwoComponents(t *testing.T) {
	// 0<->1 -> 2<->3, plus a trivial isolated 4.
	comps := SCCs(adjCSR(5, map[int][]int{0: {1}, 1: {0, 2}, 2: {3}, 3: {2}}))
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	compOf := ComponentOf(5, comps)
	if compOf[0] != compOf[1] || compOf[2] != compOf[3] || compOf[0] == compOf[2] {
		t.Errorf("ComponentOf wrong: %v", compOf)
	}
}

func TestIsTrivialSCC(t *testing.T) {
	g := adjCSR(2, map[int][]int{0: {0}, 1: {0}})
	if IsTrivialSCC([]int{0}, g) {
		t.Error("self-loop state reported trivial")
	}
	if !IsTrivialSCC([]int{1}, g) {
		t.Error("loop-free singleton reported nontrivial")
	}
	if IsTrivialSCC([]int{0, 1}, g) {
		t.Error("multi-state component reported trivial")
	}
}

func TestReachableAndCoReachable(t *testing.T) {
	edges := map[int][]int{0: {1}, 1: {2}, 3: {1}}
	r := Reachable(adjCSR(4, edges), []int{0})
	want := []bool{true, true, true, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reachable[%d] = %v, want %v", i, r[i], want[i])
		}
	}
	co := CoReachable(adjCSR(4, edges), []bool{false, false, true, false})
	wantCo := []bool{true, true, true, true}
	for i := range wantCo {
		if co[i] != wantCo[i] {
			t.Errorf("CoReachable[%d] = %v, want %v", i, co[i], wantCo[i])
		}
	}
}

func TestBottomSCCs(t *testing.T) {
	// 0 -> {1<->2} (bottom), 0 -> 3 (bottom self-loop), 4 unreachable cycle.
	g := adjCSR(5, map[int][]int{0: {1, 3}, 1: {2}, 2: {1}, 3: {3}, 4: {4}})
	bottoms := BottomSCCs(g, []int{0})
	if len(bottoms) != 2 {
		t.Fatalf("bottoms = %v, want 2 components", bottoms)
	}
	var all []int
	for _, b := range bottoms {
		all = append(all, b...)
	}
	sort.Ints(all)
	want := []int{1, 2, 3}
	if len(all) != len(want) {
		t.Fatalf("bottom states = %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("bottom states = %v, want %v", all, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := adjCSR(5, map[int][]int{0: {1, 2}, 1: {3}, 2: {3}, 3: {4}})
	p := ShortestPath(g, []int{0}, func(v int) bool { return v == 4 })
	if len(p) != 4 || p[0] != 0 || p[1] != 1 || p[3] != 4 {
		t.Errorf("path = %v, want [0 1 3 4] (successors in row order)", p)
	}
	if p := ShortestPath(g, []int{1}, func(v int) bool { return v == 2 }); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
	if p := ShortestPath(g, []int{3}, func(v int) bool { return v == 3 }); len(p) != 1 {
		t.Errorf("source-is-goal path = %v, want [3]", p)
	}
}

// TestRestrict pins the induced subgraph's shape: vertex ids are kept,
// a kept vertex keeps its kept successors in row order, and a dropped
// vertex has none.
func TestRestrict(t *testing.T) {
	g := adjCSR(4, map[int][]int{0: {3, 1, 2, 1}, 1: {0, 2}, 2: {2}, 3: {0}})
	r := g.Restrict([]bool{true, true, false, true})
	if r.NumVertices() != 4 {
		t.Fatalf("restricted graph has %d vertices, want 4", r.NumVertices())
	}
	want := map[int][]int32{0: {3, 1, 1}, 1: {0}, 2: nil, 3: {0}}
	for v := 0; v < 4; v++ {
		got := r.Succ(v)
		if len(got) != len(want[v]) {
			t.Fatalf("Succ(%d) = %v, want %v", v, got, want[v])
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("Succ(%d) = %v, want %v", v, got, want[v])
			}
		}
	}
}

// TestSCCsRandomAgainstNaive cross-checks Tarjan against a naive
// O(n·(n+m)) mutual-reachability computation on random graphs.
func TestSCCsRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(14)
		edges := map[int][]int{}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges[u] = append(edges[u], v)
		}
		g := adjCSR(n, edges)

		reachFrom := make([][]bool, n)
		for v := 0; v < n; v++ {
			reachFrom[v] = Reachable(g, []int{v})
		}
		sameComp := func(u, v int) bool { return reachFrom[u][v] && reachFrom[v][u] }

		comps := SCCs(g)
		compOf := ComponentOf(n, comps)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (compOf[u] == compOf[v]) != sameComp(u, v) {
					t.Fatalf("trial %d: states %d,%d: tarjan %v, naive %v",
						trial, u, v, compOf[u] == compOf[v], sameComp(u, v))
				}
			}
		}
		// Reverse-topological order check.
		for ci, c := range comps {
			for _, v := range c {
				for _, w := range g.Succ(v) {
					if compOf[w] > ci {
						t.Fatalf("trial %d: edge %d->%d violates reverse topo order", trial, v, w)
					}
				}
			}
		}
	}
}
