package buchi

import "relive/internal/obs"

// Record ends sp, the span of one automaton operation on rec, with the
// state and transition counts of the automaton out it built, and adds
// one to the counter "<counter>.calls" and out's states to
// "buchi.states_built" (cumulative output states, the blowup measure
// of the pipeline). Operation spans are named "buchi.<Operation>" and
// carry their input sizes; IntersectCtx records itself, and callers
// time the operations that take no context. A nil rec records nothing
// and skips the size walks.
func Record(rec obs.Recorder, sp obs.Span, counter string, out *Buchi) {
	if rec != nil {
		sp.Int("out_states", int64(out.NumStates()))
		sp.Int("out_transitions", int64(out.NumTransitions()))
		rec.Count(counter+".calls", 1)
		rec.Count("buchi.states_built", int64(out.NumStates()))
	}
	sp.End()
}
