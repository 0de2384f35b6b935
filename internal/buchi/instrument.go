package buchi

import (
	"context"

	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/word"
)

// Ops bundles the package's automaton operations with an observability
// recorder. Every method with a nil Rec is exactly the plain function —
// one nil check, no allocation, no size walks — so callers thread an
// Ops value unconditionally and pay only when a recorder is attached.
//
// Each instrumented operation records one span named
// "buchi.<Operation>" carrying input/output state and transition counts
// plus its duration, and bumps the counters
// "buchi.<operation>.calls" and "buchi.states_built" (cumulative output
// states — the blowup measure for the PSPACE-dominated pipeline).
//
// A non-nil Ctx makes the construction and emptiness loops of the
// ...Ctx methods cooperatively cancellable: they poll the context and
// return its error, so per-request deadlines and client disconnects
// actually stop the PSPACE work. A nil Ctx never cancels; the methods
// without a Ctx suffix ignore the field entirely.
type Ops struct {
	Rec obs.Recorder
	Ctx context.Context
}

// finish attaches output sizes, accumulates blowup counters, and ends
// the span.
func (o Ops) finish(sp obs.Span, counter string, out *Buchi) {
	sp.Int("out_states", int64(out.NumStates()))
	sp.Int("out_transitions", int64(out.NumTransitions()))
	obs.Count(o.Rec, counter+".calls", 1)
	obs.Count(o.Rec, "buchi.states_built", int64(out.NumStates()))
	sp.End()
}

// Intersect is Intersect with instrumentation.
func (o Ops) Intersect(a, c *Buchi) *Buchi {
	if o.Rec == nil {
		return Intersect(a, c)
	}
	sp := obs.StartSpan(o.Rec, "buchi.Intersect").
		Int("left_states", int64(a.NumStates())).
		Int("right_states", int64(c.NumStates()))
	out := Intersect(a, c)
	o.finish(sp, "buchi.intersect", out)
	return out
}

// IntersectCtx is Intersect with instrumentation and cooperative
// cancellation from o.Ctx inside the product-construction loop.
func (o Ops) IntersectCtx(a, c *Buchi) (*Buchi, error) {
	if o.Rec == nil {
		return IntersectCtx(o.Ctx, a, c)
	}
	sp := obs.StartSpan(o.Rec, "buchi.Intersect").
		Int("left_states", int64(a.NumStates())).
		Int("right_states", int64(c.NumStates()))
	out, err := IntersectCtx(o.Ctx, a, c)
	if err != nil {
		sp.Tag("aborted", "context")
		sp.End()
		return nil, err
	}
	o.finish(sp, "buchi.intersect", out)
	return out, nil
}

// Reduce is (*Buchi).Reduce with instrumentation.
func (o Ops) Reduce(b *Buchi) *Buchi {
	if o.Rec == nil {
		return b.Reduce()
	}
	sp := obs.StartSpan(o.Rec, "buchi.Reduce").
		Int("in_states", int64(b.NumStates())).
		Int("in_transitions", int64(b.NumTransitions()))
	out := b.Reduce()
	o.finish(sp, "buchi.reduce", out)
	return out
}

// Complement is (*Buchi).Complement (rank-based) with instrumentation.
func (o Ops) Complement(b *Buchi) (*Buchi, error) {
	if o.Rec == nil {
		return b.Complement()
	}
	sp := obs.StartSpan(o.Rec, "buchi.Complement").
		Tag("algorithm", "rank-based").
		Int("in_states", int64(b.NumStates()))
	out, err := b.Complement()
	if err != nil {
		sp.End()
		return nil, err
	}
	o.finish(sp, "buchi.complement", out)
	return out, nil
}

// PrefixNFA is (*Buchi).PrefixNFA with instrumentation: the pre(L_ω)
// construction (reduce, then accept every finite path).
func (o Ops) PrefixNFA(b *Buchi) *nfa.NFA {
	if o.Rec == nil {
		return b.PrefixNFA()
	}
	sp := obs.StartSpan(o.Rec, "buchi.PrefixNFA").
		Int("in_states", int64(b.NumStates()))
	out := o.Reduce(b).ToNFA().MarkAllAccepting()
	sp.Int("out_states", int64(out.NumStates()))
	sp.Int("out_transitions", int64(out.NumTransitions()))
	obs.Count(o.Rec, "buchi.prefixnfa.calls", 1)
	sp.End()
	return out
}

// LimitOfAllAccepting is LimitOfAllAccepting with instrumentation.
func (o Ops) LimitOfAllAccepting(a *nfa.NFA) (*Buchi, error) {
	if o.Rec == nil {
		return LimitOfAllAccepting(a)
	}
	sp := obs.StartSpan(o.Rec, "buchi.LimitOfAllAccepting").
		Int("in_states", int64(a.NumStates())).
		Int("in_transitions", int64(a.NumTransitions()))
	out, err := LimitOfAllAccepting(a)
	if err != nil {
		sp.End()
		return nil, err
	}
	o.finish(sp, "buchi.limit", out)
	return out, nil
}

// IntersectLassoCtx is IntersectLasso with instrumentation and
// cooperative cancellation from o.Ctx inside the emptiness search.
func (o Ops) IntersectLassoCtx(a, c *Buchi) (word.Lasso, bool, error) {
	if o.Rec == nil {
		return IntersectLassoCtx(o.Ctx, a, c)
	}
	sp := obs.StartSpan(o.Rec, "buchi.IntersectEmpty").
		Int("left_states", int64(a.NumStates())).
		Int("right_states", int64(c.NumStates()))
	l, explored, ok, err := intersectLasso(o.Ctx, a, c, nil, nil)
	sp.Int("explored_states", int64(explored))
	if err != nil {
		sp.Tag("aborted", "context")
		sp.End()
		return word.Lasso{}, false, err
	}
	empty := int64(1)
	if ok {
		empty = 0
	}
	sp.Int("empty", empty)
	obs.Count(o.Rec, "buchi.emptiness.calls", 1)
	sp.End()
	return l, ok, nil
}
