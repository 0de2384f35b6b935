package core

import (
	"context"
	"fmt"
	"sort"

	"relive/internal/buchi"
	"relive/internal/interrupt"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// LivenessResult is the outcome of a relative-liveness check. When the
// property is not a relative liveness property, BadPrefix is a shortest
// finite behavior prefix w ∈ pre(L_ω) that no continuation within the
// system can extend to an ω-word satisfying the property.
type LivenessResult struct {
	Holds     bool
	BadPrefix word.Word
}

// RelativeLiveness decides whether pc's property is a relative
// liveness property of its system's behaviors lim(L) (Definition 4.1),
// via the characterization of Lemma 4.3:
//
//	pre(L_ω) = pre(L_ω ∩ P).
//
// pre(L_ω) is the finite-path language of the trimmed system;
// pre(L_ω ∩ P) is the finite-path language of the reduced Büchi product
// of the behaviors with the property automaton. The inclusion
// pre(L_ω ∩ P) ⊆ pre(L_ω) always holds, so only the converse is
// checked, and a failure yields the BadPrefix witness. Each phase — the
// behavior construction, the property translation, the pre(L∩P)
// product, and the inclusion check — reports a span to ctx's recorder.
func RelativeLiveness(ctx context.Context, pc *PipelineCells) (LivenessResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.RelativeLiveness").
		Tag("paper", "Definition 4.1 via Lemma 4.3")
	defer sp.End()
	trimmed, _, err := pc.sc.limits(ctx)
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	if trimmed == nil {
		// No infinite behavior at all: pre(L_ω) = ∅ and the condition of
		// Definition 4.1 is vacuously true.
		return LivenessResult{Holds: true}, nil
	}
	preL, err := trimmed.NFA()
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	preLP, err := pc.preProduct(ctx)
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	isp := obs.StartSpan(rec, "pre(L) ⊆ pre(L∩P)").
		Tag("paper", "Lemma 4.3: pre(L) = pre(L∩P)").
		Tag("kernel", nfa.ResolveKernel(preLP)).
		Int("left_states", int64(preL.NumStates())).
		Int("right_states", int64(preLP.NumStates()))
	ok, w, err := nfa.IncludedKernelCtx(ctx, preL, preLP)
	if err != nil {
		isp.Tag("aborted", "context").End()
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	isp.End()
	if ok {
		return LivenessResult{Holds: true}, nil
	}
	return LivenessResult{Holds: false, BadPrefix: w}, nil
}

// trimSystem trims sys, reporting sizes under a "trim(L)" span. A nil
// trimmed system (with nil error) signals that sys has no infinite
// behavior at all, the vacuous case of the Section 4 checks. A context
// error from the trim fixpoint is propagated, never folded into the
// vacuous case.
func trimSystem(ctx context.Context, sys *ts.System) (*ts.System, error) {
	sp := obs.StartSpan(obs.RecorderFromContext(ctx), "trim(L)").
		Tag("paper", "Section 3: states with an infinite continuation").
		Int("in_states", int64(sys.NumStates()))
	defer sp.End()
	trimmed, err := sys.TrimCtx(ctx)
	if err != nil {
		if isContextError(err) {
			sp.Tag("aborted", "context")
			return nil, err
		}
		sp.Int("out_states", 0)
		return nil, nil
	}
	sp.Int("out_states", int64(trimmed.NumStates()))
	return trimmed, nil
}

// behaviorsOf builds the behavior automaton lim(L) of a trimmed system,
// reporting sizes under a "lim(L)" span.
func behaviorsOf(rec obs.Recorder, trimmed *ts.System) (*buchi.Buchi, error) {
	sp := obs.StartSpan(rec, "lim(L)").
		Tag("paper", "Section 3: system behaviors").
		Int("in_states", int64(trimmed.NumStates()))
	defer sp.End()
	behaviors, err := trimmed.Behaviors()
	if err != nil {
		return nil, err
	}
	sp.Int("out_states", int64(behaviors.NumStates()))
	sp.Int("out_transitions", int64(behaviors.NumTransitions()))
	return behaviors, nil
}

// RelativeLivenessDirect decides relative liveness straight from
// Definition 4.1, as an independent second algorithm used to
// cross-validate the Lemma 4.3 route: it enumerates the finitely many
// reachable configurations (set of system states, set of property
// states) that a prefix w can induce and checks, for each, that some
// continuation is accepted by both.
func RelativeLivenessDirect(sys *ts.System, p Property) (LivenessResult, error) {
	trimmed, err := sys.Trim()
	if err != nil {
		return LivenessResult{Holds: true}, nil
	}
	behaviors, err := trimmed.Behaviors()
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (direct): %w", err)
	}
	pa, err := p.Automaton(nil, sys.Alphabet())
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (direct): %w", err)
	}

	type cfg struct {
		sysSet  string // canonical key of the behavior-state set
		propSet string
	}
	type entry struct {
		sys    []buchi.State
		prop   []buchi.State
		parent int
		sym    word.Word // single-letter step (nil for root)
	}
	keyOf := func(set []buchi.State) string {
		b := make([]byte, 0, len(set)*2)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8))
		}
		return string(b)
	}
	sortSet := func(set map[buchi.State]bool) []buchi.State {
		out := make([]buchi.State, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	start := entry{sys: behaviors.Initial(), prop: pa.Initial(), parent: -1}
	sort.Slice(start.sys, func(i, j int) bool { return start.sys[i] < start.sys[j] })
	sort.Slice(start.prop, func(i, j int) bool { return start.prop[i] < start.prop[j] })
	queue := []entry{start}
	seen := map[cfg]bool{{keyOf(start.sys), keyOf(start.prop)}: true}

	wordTo := func(i int) word.Word {
		var w word.Word
		for j := i; queue[j].parent != -1; j = queue[j].parent {
			w = append(w, queue[j].sym...)
		}
		for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
			w[l], w[r] = w[r], w[l]
		}
		return w
	}

	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		// Check Definition 4.1 at this configuration: some continuation x
		// with wx a behavior satisfying P, i.e. the product of the
		// behavior automaton started at cur.sys with the property
		// automaton started at cur.prop is nonempty. The on-the-fly
		// check explores that product directly instead of cloning and
		// re-rooting both automata per configuration.
		if buchi.IntersectEmptyFrom(behaviors, pa, cur.sys, cur.prop) {
			return LivenessResult{Holds: false, BadPrefix: wordTo(i)}, nil
		}
		for _, sym := range sys.Alphabet().Symbols() {
			nextSys := map[buchi.State]bool{}
			for _, s := range cur.sys {
				for _, t := range behaviors.Succ(s, sym) {
					nextSys[t] = true
				}
			}
			if len(nextSys) == 0 {
				continue // w·sym is not a behavior prefix
			}
			nextProp := map[buchi.State]bool{}
			for _, s := range cur.prop {
				for _, t := range pa.Succ(s, sym) {
					nextProp[t] = true
				}
			}
			e := entry{sys: sortSet(nextSys), prop: sortSet(nextProp), parent: i, sym: word.Word{sym}}
			k := cfg{keyOf(e.sys), keyOf(e.prop)}
			if !seen[k] {
				seen[k] = true
				queue = append(queue, e)
			}
		}
	}
	return LivenessResult{Holds: true}, nil
}
