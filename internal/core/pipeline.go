package core

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
)

// Every check takes a context.Context as its first argument. The
// context is threaded into the pipeline's loops — reachability, Büchi
// products, subset-construction inclusion, emptiness — which poll it
// cooperatively (see internal/interrupt) and return context.Canceled /
// context.DeadlineExceeded, wrapped so errors.Is applies, instead of
// running the PSPACE-hard work to completion. The context also carries
// the check's recorder (obs.ContextWithRecorder): each phase reports a
// span to it, and a context without one runs uninstrumented.
//
// SystemCells and PipelineCells are opaque handles over the
// single-flight artifact cells, so a serving layer can keep trimmed
// systems, property automata, and pre(L∩P) products alive across
// requests: concurrent identical requests coalesce onto one build, and
// a cache hit skips the build entirely. Each artifact's span is emitted
// by (and attributed to) whichever goroutine wins the race to build
// it. A request cancelled mid-build never poisons a cell — the next
// request simply rebuilds (see cell).

// SystemCells caches the system-only artifacts of the pipeline: the
// trimmed system (span "trim(L)") and its behavior automaton lim(L)
// (span "lim(L)"), built from the trimmed system on first demand. One
// SystemCells value may back many PipelineCells for different
// properties against the same system, so a property portfolio trims
// the system and builds lim(L) exactly once. The statistical check
// reads only the trimmed system and never pays for lim(L). Safe for
// concurrent use.
type SystemCells struct {
	sys  *ts.System
	trim cell[*ts.System]
	lim  cell[*buchi.Buchi]
}

// NewSystemCells wraps sys in a reusable single-flight artifact handle.
func NewSystemCells(sys *ts.System) *SystemCells {
	return &SystemCells{sys: sys}
}

// System returns the underlying system. Serving layers that cache
// SystemCells by structural hash parse properties against this system's
// alphabet so all artifacts agree on symbol identity.
func (sc *SystemCells) System() *ts.System { return sc.sys }

// trimmed returns the trimmed system. A nil system (with nil error) is
// the vacuous case — sys has no infinite behavior at all.
func (sc *SystemCells) trimmed(ctx context.Context) (*ts.System, error) {
	return sc.trim.get(ctx, func() (*ts.System, error) {
		return trimSystem(ctx, sc.sys)
	})
}

// limits returns the trimmed system and its behavior automaton lim(L),
// or two nils in the vacuous case.
func (sc *SystemCells) limits(ctx context.Context) (*ts.System, *buchi.Buchi, error) {
	trimmed, err := sc.trimmed(ctx)
	if err != nil || trimmed == nil {
		return nil, nil, err
	}
	behaviors, err := sc.lim.get(ctx, func() (*buchi.Buchi, error) {
		return behaviorsOf(obs.RecorderFromContext(ctx), trimmed)
	})
	if err != nil {
		return nil, nil, err
	}
	return trimmed, behaviors, nil
}

// propCell is the single-flight memo for the property automaton P and
// its negation ¬P over one alphabet. A systems-side portfolio checking
// one property against many same-alphabet systems shares a single
// propCell, so the (potentially exponential) translations run once.
type propCell struct {
	p  Property
	ab *alphabet.Alphabet

	pa   cell[*buchi.Buchi]
	notP cell[*buchi.Buchi]
}

func (c *propCell) automaton(ctx context.Context) (*buchi.Buchi, error) {
	return c.pa.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.automatonFor(ctx, c.ab)
	})
}

func (c *propCell) negation(ctx context.Context) (*buchi.Buchi, error) {
	return c.notP.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.negationFor(ctx, c.ab)
	})
}

// PipelineCells caches the full artifact set for one (system, property)
// pair: lim(L), P→Büchi, ¬P, and pre(L∩P). The Section 4 decision
// procedures each run over one; CheckAll hands all three the same
// cells, so each artifact is constructed exactly once per check, even
// when concurrent checks share the cells. Safe for concurrent use.
type PipelineCells struct {
	sc   *SystemCells
	prop *propCell
	prod cell[*nfa.NFA] // pre(L∩P): trim(PrefixNFA(behaviors ∩ P))
}

// NewPipelineCells builds a fresh artifact set for (sys, p).
func NewPipelineCells(sys *ts.System, p Property) *PipelineCells {
	return NewPipelineCellsSharing(NewSystemCells(sys), p)
}

// NewPipelineCellsSharing builds an artifact set for property p that
// shares sc's trimmed system and behavior automaton, so checking many
// properties against one cached system trims it exactly once.
func NewPipelineCellsSharing(sc *SystemCells, p Property) *PipelineCells {
	return &PipelineCells{sc: sc, prop: &propCell{p: p, ab: sc.sys.Alphabet()}}
}

// preProduct returns pre(L∩P), the prefix language of the reduced
// product of the behaviors with the property automaton, shared by the
// Lemma 4.3 and Lemma 4.4 checks. The result is trim; it has zero
// states exactly when L_ω ∩ P = ∅. Must not be called in the vacuous
// case (nil trimmed system).
func (pc *PipelineCells) preProduct(ctx context.Context) (*nfa.NFA, error) {
	return pc.prod.get(ctx, func() (*nfa.NFA, error) {
		_, behaviors, err := pc.sc.limits(ctx)
		if err != nil {
			return nil, err
		}
		pa, err := pc.prop.automaton(ctx)
		if err != nil {
			return nil, err
		}
		psp := obs.StartSpan(obs.RecorderFromContext(ctx), "pre(L∩P)").
			Int("behavior_states", int64(behaviors.NumStates())).
			Int("property_states", int64(pa.NumStates()))
		preLP, explored, err := buchi.PreProductNFACtx(ctx, behaviors, pa)
		if err != nil {
			psp.Tag("aborted", "context").End()
			return nil, err
		}
		psp.Int("product_states", int64(explored))
		psp.Int("out_states", int64(preLP.NumStates()))
		psp.End()
		return preLP, nil
	})
}

// reduce is (*buchi.Buchi).Reduce reported as a "buchi.Reduce" span.
func reduce(rec obs.Recorder, b *buchi.Buchi) *buchi.Buchi {
	sp := obs.StartSpan(rec, "buchi.Reduce").
		Int("in_states", int64(b.NumStates())).
		Int("in_transitions", int64(b.NumTransitions()))
	out := b.Reduce()
	buchi.Record(rec, sp, "buchi.reduce", out)
	return out
}

// prefixNFA is (*buchi.Buchi).PrefixNFA, the pre(L_ω) construction
// (reduce, then accept every finite path), reported as a
// "buchi.PrefixNFA" span around its reduction.
func prefixNFA(rec obs.Recorder, b *buchi.Buchi) *nfa.NFA {
	if rec == nil {
		return b.PrefixNFA()
	}
	sp := obs.StartSpan(rec, "buchi.PrefixNFA").
		Int("in_states", int64(b.NumStates()))
	out := reduce(rec, b).ToNFA().MarkAllAccepting()
	sp.Int("out_states", int64(out.NumStates()))
	sp.Int("out_transitions", int64(out.NumTransitions()))
	rec.Count("buchi.prefixnfa.calls", 1)
	sp.End()
	return out
}
