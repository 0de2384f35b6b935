package fairness

import (
	"fmt"

	"relive/internal/ts"
)

// Scheduler produces concrete executions of a transition system under a
// simple strongly fair strategy: among the transitions enabled at the
// current state, it always takes the one that has waited longest since
// it was last taken (breaking ties deterministically by edge order).
// Every transition enabled infinitely often is then taken infinitely
// often, so infinite executions are strongly transition-fair.
type Scheduler struct {
	sys       *ts.System
	edges     []ts.Edge
	byState   map[ts.State][]int
	lastTaken []int // step at which each edge was last taken, -1 never
	step      int
	current   ts.State
}

// NewScheduler returns a scheduler positioned at the system's initial
// state.
func NewScheduler(sys *ts.System) (*Scheduler, error) {
	if sys.Initial() < 0 {
		return nil, fmt.Errorf("fairness: system has no initial state")
	}
	s := &Scheduler{
		sys:     sys,
		edges:   sys.Edges(),
		byState: map[ts.State][]int{},
		current: sys.Initial(),
	}
	for ei, e := range s.edges {
		s.byState[e.From] = append(s.byState[e.From], ei)
	}
	s.lastTaken = make([]int, len(s.edges))
	for i := range s.lastTaken {
		s.lastTaken[i] = -1
	}
	return s, nil
}

// Step takes the longest-waiting enabled transition and returns it;
// ok is false when the current state has no outgoing transition.
func (s *Scheduler) Step() (ts.Edge, bool) {
	candidates := s.byState[s.current]
	if len(candidates) == 0 {
		return ts.Edge{}, false
	}
	best := candidates[0]
	for _, ei := range candidates[1:] {
		if s.lastTaken[ei] < s.lastTaken[best] {
			best = ei
		}
	}
	s.lastTaken[best] = s.step
	s.step++
	s.current = s.edges[best].To
	return s.edges[best], true
}

// Trace runs the scheduler for n steps and returns the edges taken; the
// trace is shorter when a dead end is reached. A non-positive budget
// yields an empty trace.
func (s *Scheduler) Trace(n int) []ts.Edge {
	if n <= 0 {
		return nil
	}
	out := make([]ts.Edge, 0, n)
	for i := 0; i < n; i++ {
		e, ok := s.Step()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
