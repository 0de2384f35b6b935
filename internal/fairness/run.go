// Package fairness implements strong and weak transition fairness for
// finite-state transition systems: a Streett-style checker for the
// existence of fair runs satisfying an ω-regular property (the
// machinery behind Theorem 5.1's claim that all strongly fair
// computations of the synthesized implementation satisfy the relative
// liveness property), and a deterministic fair scheduler for
// simulation.
package fairness

import (
	"fmt"

	"relive/internal/ts"
	"relive/internal/word"
)

// Run is an ultimately periodic run of a transition system: a finite
// prefix of edges followed by an infinitely repeated nonempty loop of
// edges.
type Run struct {
	Prefix []ts.Edge
	Loop   []ts.Edge
}

// Validate checks that the run is a connected path of sys starting at
// the initial state and that the loop closes.
func (r Run) Validate(sys *ts.System) error {
	if len(r.Loop) == 0 {
		return fmt.Errorf("fairness: run has an empty loop")
	}
	cur := sys.Initial()
	if cur < 0 {
		return fmt.Errorf("fairness: system has no initial state")
	}
	check := func(e ts.Edge) error {
		if e.From != cur {
			return fmt.Errorf("fairness: edge %v does not start at current state %v", e, cur)
		}
		found := false
		for _, t := range sys.Succ(e.From, e.Sym) {
			if t == e.To {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("fairness: edge %v is not a transition of the system", e)
		}
		cur = e.To
		return nil
	}
	for _, e := range r.Prefix {
		if err := check(e); err != nil {
			return err
		}
	}
	loopStart := cur
	for _, e := range r.Loop {
		if err := check(e); err != nil {
			return err
		}
	}
	if cur != loopStart {
		return fmt.Errorf("fairness: loop does not return to its entry state")
	}
	return nil
}

// Word returns the ω-word of actions along the run.
func (r Run) Word() word.Lasso {
	prefix := make(word.Word, len(r.Prefix))
	for i, e := range r.Prefix {
		prefix[i] = e.Sym
	}
	loop := make(word.Word, len(r.Loop))
	for i, e := range r.Loop {
		loop[i] = e.Sym
	}
	return word.MustLasso(prefix, loop)
}
