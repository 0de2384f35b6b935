package ts

import (
	"fmt"
	"sort"
	"strings"
)

// BisimulationClasses computes the strong-bisimulation equivalence
// classes of the system's states by partition refinement: two states
// are equivalent iff for every action each can match the other's
// transitions into equivalent states. The returned slice maps each
// state to its class id.
func (s *System) BisimulationClasses() []int {
	n := s.NumStates()
	class := make([]int, n) // everything starts equivalent
	numClasses := 1
	for {
		next := make(map[string]int)
		newClass := make([]int, n)
		for i := 0; i < n; i++ {
			sig := s.bisimSignature(State(i), class)
			id, ok := next[sig]
			if !ok {
				id = len(next)
				next[sig] = id
			}
			newClass[i] = id
		}
		if len(next) == numClasses {
			return newClass
		}
		class = newClass
		numClasses = len(next)
	}
}

// bisimSignature canonically describes a state's one-step behavior up
// to the current partition.
func (s *System) bisimSignature(st State, class []int) string {
	var moves []string
	for sym, targets := range s.trans[st] {
		blocks := map[int]bool{}
		for _, t := range targets {
			blocks[class[t]] = true
		}
		ids := make([]int, 0, len(blocks))
		for b := range blocks {
			ids = append(ids, b)
		}
		sort.Ints(ids)
		for _, b := range ids {
			moves = append(moves, fmt.Sprintf("%d>%d", int(sym), b))
		}
	}
	sort.Strings(moves)
	return strings.Join(moves, ";")
}

// BisimulationQuotient returns the quotient of the system by strong
// bisimulation: one state per class, named after a representative
// member, preserving the initial state and the step relation. The
// quotient is strongly bisimilar to the original, hence has the same
// finite-path language and the same behaviors — and therefore the same
// relative liveness and relative safety properties.
func (s *System) BisimulationQuotient() (*System, error) {
	if s.initial < 0 {
		return nil, fmt.Errorf("ts: system has no initial state")
	}
	class := s.BisimulationClasses()
	out := New(s.ab)
	rep := map[int]State{}
	// Representative per class: the lowest-numbered member, keeping
	// names stable.
	for i := 0; i < s.NumStates(); i++ {
		if _, ok := rep[class[i]]; !ok {
			rep[class[i]] = out.AddState(s.names[i])
		}
	}
	for i := 0; i < s.NumStates(); i++ {
		from := rep[class[i]]
		for sym, targets := range s.trans[i] {
			for _, t := range targets {
				out.AddTransition(from, sym, rep[class[t]])
			}
		}
	}
	out.SetInitial(rep[class[s.initial]])
	return out, nil
}
