package core

import (
	"context"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// FairImplementation is the output of the Theorem 5.1 synthesis: a
// finite-state system (without acceptance) that accepts exactly the
// behaviors L_ω of the input system, and on which every strongly fair
// run satisfies the relative liveness property the synthesis started
// from. Marked records which synthesized states were accepting in the
// reduced Büchi automaton for L_ω ∩ P — the "added state information"
// the theorem speaks of.
type FairImplementation struct {
	System *ts.System
	Marked map[ts.State]bool
}

// SynthesizeFairImplementation implements the construction in the proof
// of Theorem 5.1: take a reduced Büchi automaton A for L_ω ∩ P and drop
// its acceptance condition. Because P is a relative liveness property,
// pre(L_ω ∩ P) = pre(L_ω) (Lemma 4.3) and L_ω is limit closed, so the
// acceptance-free automaton accepts exactly L_ω; and every strongly
// fair run passes through A's accepting states infinitely often, hence
// satisfies P.
//
// The function verifies the relative-liveness precondition and fails if
// it does not hold (Theorem 5.1 gives no guarantee then). The
// precondition check, the reduced-product construction, and the
// implementation build report to ctx's recorder.
func SynthesizeFairImplementation(ctx context.Context, sys *ts.System, p Property) (*FairImplementation, error) {
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.SynthesizeFairImplementation").
		Tag("paper", "Theorem 5.1")
	defer sp.End()
	// The implementation is built from the artifacts the precondition
	// was checked on: one trim, one lim(L), one P automaton.
	pc := NewPipelineCells(sys, p)
	rl, err := RelativeLiveness(ctx, pc)
	if err != nil {
		return nil, fmt.Errorf("fair implementation: %w", err)
	}
	if !rl.Holds {
		return nil, fmt.Errorf(
			"fair implementation: %s is not a relative liveness property (bad prefix %s)",
			p, rl.BadPrefix.String(sys.Alphabet()))
	}
	trimmed, behaviors, err := pc.sc.limits(ctx)
	if err != nil {
		return nil, fmt.Errorf("fair implementation: %w", err)
	}
	if trimmed == nil {
		return nil, fmt.Errorf("fair implementation: system has no infinite behavior")
	}
	pa, err := pc.prop.automaton(ctx)
	if err != nil {
		return nil, fmt.Errorf("fair implementation: %w", err)
	}
	rsp := obs.StartSpan(rec, "reduce(L∩P)").
		Tag("paper", "Theorem 5.1: reduced Büchi automaton for L∩P")
	product, err := buchi.IntersectCtx(ctx, behaviors, pa)
	if err != nil {
		rsp.Tag("aborted", "context").End()
		return nil, fmt.Errorf("fair implementation: %w", err)
	}
	reduced := reduce(rec, product)
	rsp.Int("out_states", int64(reduced.NumStates()))
	rsp.End()
	if len(reduced.Initial()) == 0 {
		return nil, fmt.Errorf("fair implementation: reduced product is empty")
	}
	// Theorem 5.1 needs a single finite-state system; determinizing the
	// underlying transition structure would not preserve the accepting
	// marks, so the (possibly nondeterministic) reduced automaton itself
	// becomes the implementation. Multiple initial states are folded by
	// an auxiliary initial state when needed.
	impl := ts.New(sys.Alphabet())
	marked := map[ts.State]bool{}
	name := func(i buchi.State) string { return fmt.Sprintf("m%d", i) }
	for i := 0; i < reduced.NumStates(); i++ {
		st := impl.AddState(name(buchi.State(i)))
		if reduced.Accepting(buchi.State(i)) {
			marked[st] = true
		}
	}
	for i := 0; i < reduced.NumStates(); i++ {
		from, _ := impl.LookupState(name(buchi.State(i)))
		for _, sym := range sys.Alphabet().Symbols() {
			for _, t := range reduced.Succ(buchi.State(i), sym) {
				to, _ := impl.LookupState(name(t))
				impl.AddTransition(from, sym, to)
			}
		}
	}
	inits := reduced.Initial()
	if len(inits) == 1 {
		st, _ := impl.LookupState(name(inits[0]))
		impl.SetInitial(st)
	} else {
		init := impl.AddState("m_init")
		acc := false
		for _, i0 := range inits {
			if reduced.Accepting(i0) {
				acc = true
			}
			for _, sym := range sys.Alphabet().Symbols() {
				for _, t := range reduced.Succ(i0, sym) {
					to, _ := impl.LookupState(name(t))
					impl.AddTransition(init, sym, to)
				}
			}
		}
		marked[init] = acc
		impl.SetInitial(init)
	}
	return &FairImplementation{System: impl, Marked: marked}, nil
}

// SameBehaviors checks that the implementation accepts exactly the
// behaviors of the original system, the first guarantee of Theorem 5.1.
// On failure it returns a finite word in the symmetric difference of the
// prefix languages (equality of limit-closed behavior sets reduces to
// equality of their prefix languages).
func (fi *FairImplementation) SameBehaviors(sys *ts.System) (bool, word.Word, error) {
	origTrim, err := sys.Trim()
	if err != nil {
		return false, nil, fmt.Errorf("fair implementation check: %w", err)
	}
	implTrim, err := fi.System.Trim()
	if err != nil {
		return false, nil, fmt.Errorf("fair implementation check: %w", err)
	}
	a1, err := origTrim.NFA()
	if err != nil {
		return false, nil, err
	}
	a2, err := implTrim.NFA()
	if err != nil {
		return false, nil, err
	}
	eq, w := nfa.LanguageEqual(a1, a2)
	return eq, w, nil
}
