// Package core implements the contributions of Nitsche & Wolper
// (PODC'97): deciding relative liveness and relative safety of ω-regular
// properties over finite-state systems (Section 4), machine closure
// (Definition 4.6), the conjunction theorem (Theorem 4.7), synthesis and
// verification of fair implementations (Theorem 5.1), and verification
// via behavior abstraction under simple homomorphisms (Sections 6–8).
package core

import (
	"context"
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
	"relive/internal/obs"
)

// Property is an ω-regular property P ⊆ Σ^ω, given either as a PLTL
// formula with a labeling function or directly as a Büchi automaton.
// Formula-backed properties negate syntactically; automaton-backed ones
// complement with the rank-based construction.
type Property struct {
	formula   *ltl.Formula
	labeling  *ltl.Labeling
	automaton *buchi.Buchi
}

// FromFormula returns the property of all ω-words satisfying f under
// lab. A nil lab defaults to the canonical Σ-labeling of the checked
// system's alphabet (Definition 7.2).
func FromFormula(f *ltl.Formula, lab *ltl.Labeling) Property {
	return Property{formula: f, labeling: lab}
}

// FromAutomaton returns the property accepted by b.
func FromAutomaton(b *buchi.Buchi) Property {
	return Property{automaton: b}
}

// Formula returns the defining formula, if any.
func (p Property) Formula() *ltl.Formula { return p.formula }

// String describes the property.
func (p Property) String() string {
	if p.formula != nil {
		return p.formula.String()
	}
	if p.automaton != nil {
		return fmt.Sprintf("Büchi(%d states)", p.automaton.NumStates())
	}
	return "<empty property>"
}

func (p Property) labelingFor(ab *alphabet.Alphabet) *ltl.Labeling {
	if p.labeling != nil {
		return p.labeling
	}
	return ltl.Canonical(ab)
}

// Automaton returns a Büchi automaton for P over ab. A formula's
// translation stops with ctx's error once ctx is done; a nil ctx never
// cancels.
func (p Property) Automaton(ctx context.Context, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	switch {
	case p.automaton != nil:
		return p.automaton, nil
	case p.formula != nil:
		return ltl.TranslateBuchi(ctx, p.formula, p.labelingFor(ab))
	}
	return nil, fmt.Errorf("core: empty property")
}

// NegationAutomaton returns a Büchi automaton for Σ^ω \ P over ab,
// under ctx as Automaton is.
func (p Property) NegationAutomaton(ctx context.Context, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	return p.negation(ctx, nil, ab)
}

// automatonFor is Automaton with the construction reported to ctx's
// recorder: one span named "P→Büchi" with the output size, tagged with
// the source (formula translation vs. given automaton).
func (p Property) automatonFor(ctx context.Context, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	rec := obs.RecorderFromContext(ctx)
	if rec == nil {
		return p.Automaton(ctx, ab)
	}
	sp := obs.StartSpan(rec, "P→Büchi")
	defer sp.End()
	if p.formula != nil {
		sp.Tag("source", "ltl.TranslateBuchi")
	} else {
		sp.Tag("source", "automaton")
	}
	out, err := p.Automaton(ctx, ab)
	if err != nil {
		return nil, err
	}
	sp.Int("out_states", int64(out.NumStates()))
	sp.Int("out_transitions", int64(out.NumTransitions()))
	return out, nil
}

// negationFor is NegationAutomaton with the construction reported to
// ctx's recorder: a "¬P" span covering either the syntactic negation
// translation or the rank-based complement (which appears as a child
// "buchi.Complement" span with its own blowup figures).
func (p Property) negationFor(ctx context.Context, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	return p.negation(ctx, obs.RecorderFromContext(ctx), ab)
}

// negation builds ¬P under ctx, reporting to rec.
func (p Property) negation(ctx context.Context, rec obs.Recorder, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	switch {
	case p.automaton != nil:
		sp := obs.StartSpan(rec, "¬P")
		defer sp.End()
		csp := obs.StartSpan(rec, "buchi.Complement").
			Tag("algorithm", "rank-based").
			Int("in_states", int64(p.automaton.NumStates()))
		c, err := p.automaton.Complement()
		if err != nil {
			csp.End()
			return nil, fmt.Errorf("core: complementing property automaton: %w", err)
		}
		buchi.Record(rec, csp, "buchi.complement", c)
		sp.Int("out_states", int64(c.NumStates()))
		return c, nil
	case p.formula != nil:
		sp := obs.StartSpan(rec, "¬P").Tag("source", "ltl.TranslateNegation")
		defer sp.End()
		out, err := ltl.TranslateNegation(ctx, p.formula, p.labelingFor(ab))
		if err != nil {
			return nil, err
		}
		sp.Int("out_states", int64(out.NumStates()))
		sp.Int("out_transitions", int64(out.NumTransitions()))
		return out, nil
	}
	return nil, fmt.Errorf("core: empty property")
}
