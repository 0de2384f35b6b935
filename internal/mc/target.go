// Package mc is the statistical relative-liveness engine: parallel
// random-walk sampling of a transition graph, bottom-SCC lasso
// detection with on-the-fly property evaluation, and
// confidence-interval verdicts (Wilson and Clopper–Pearson). Run first
// visits every state once, to compile the graph into flat successor
// arrays and index its nontrivial bottom SCCs with internal/graph's
// Tarjan; each walk then ends as soon as its outcome is fixed. It
// realizes the paper's Section 9 outlook —
// relative liveness "informally says: almost all computations satisfy
// the property" — as a sampling engine: under the uniform random
// scheduler a run of a finite-state system almost surely falls into a
// bottom SCC and sweeps it strongly fairly, so the frequency with which
// sampled runs satisfy P estimates the probability that a random run
// does, whose exact counterpart is "all strongly fair runs satisfy P"
// (core.AllFairRunsSatisfy). Verdicts are confidence intervals, never
// claimed exact; sampled counterexamples are genuine behaviors of the
// system and therefore sound.
package mc

import (
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/ts"
)

// Target is the transition graph the sampler walks, given by successor
// callbacks; Run reads every transition once, when it compiles the
// graph. States are dense ints in [0, NumStates); the transitions of a
// state are indexed 0..Degree-1 in a fixed deterministic order (the
// same (state, i) must always yield the same successor — sampling
// determinism depends on it).
type Target interface {
	// NumStates bounds the state space (used to size visited sets).
	NumStates() int
	// Start is the initial state.
	Start() int
	// Degree returns the number of outgoing transitions of s.
	Degree(s int) int
	// Edge returns the i-th outgoing transition of s (i < Degree(s)).
	Edge(s, i int) (to int, sym alphabet.Symbol)
}

// SystemTarget adapts a ts.System to the Target interface in CSR form:
// one flat successor array grouped by source state, built once, with
// per-step successor lookup O(1) and allocation-free. Walk a *trimmed*
// system (core trims before sampling): every state then has at least
// one successor, so walks never die at a dead end, and trimming
// preserves behaviors, so every sampled lasso is a behavior of the
// original system.
type SystemTarget struct {
	rowStart []int32 // len NumStates+1; successors of s are rows[rowStart[s]:rowStart[s+1]]
	to       []int32
	sym      []alphabet.Symbol
	start    int
}

// NewSystemTarget compiles sys into CSR successor form. The successor
// order within a state follows sys.Edges() order, so the adapter is a
// deterministic function of the system's structure.
func NewSystemTarget(sys *ts.System) (*SystemTarget, error) {
	if sys.Initial() < 0 {
		return nil, fmt.Errorf("mc: system has no initial state")
	}
	n := sys.NumStates()
	edges := sys.Edges()
	t := &SystemTarget{
		rowStart: make([]int32, n+1),
		to:       make([]int32, len(edges)),
		sym:      make([]alphabet.Symbol, len(edges)),
		start:    int(sys.Initial()),
	}
	for _, e := range edges {
		t.rowStart[int(e.From)+1]++
	}
	for s := 0; s < n; s++ {
		t.rowStart[s+1] += t.rowStart[s]
	}
	cursor := make([]int32, n)
	copy(cursor, t.rowStart[:n])
	for _, e := range edges {
		i := cursor[e.From]
		t.to[i] = int32(e.To)
		t.sym[i] = e.Sym
		cursor[e.From]++
	}
	return t, nil
}

// NumStates implements Target.
func (t *SystemTarget) NumStates() int { return len(t.rowStart) - 1 }

// Start implements Target.
func (t *SystemTarget) Start() int { return t.start }

// Degree implements Target.
func (t *SystemTarget) Degree(s int) int { return int(t.rowStart[s+1] - t.rowStart[s]) }

// Edge implements Target.
func (t *SystemTarget) Edge(s, i int) (int, alphabet.Symbol) {
	j := t.rowStart[s] + int32(i)
	return int(t.to[j]), t.sym[j]
}
