package core

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
)

// limitsCell is the pair of single-flight memos for the system-only
// artifacts: the trimmed system (span "trim(L)") and its behavior
// automaton lim(L) (span "lim(L)"), built from the trimmed system on
// first demand. It is shared by every pipeline checking the same
// system, so a property portfolio trims the system and builds lim(L)
// exactly once regardless of how many workers race into it; the serving
// layer additionally keeps these cells in its LRU so the artifacts
// survive across requests. The statistical check reads only the trimmed
// system and never pays for lim(L).
type limitsCell struct {
	sys  *ts.System
	trim cell[*ts.System]
	lim  cell[*buchi.Buchi]
}

func newLimitsCell(sys *ts.System) *limitsCell {
	return &limitsCell{sys: sys}
}

// trimmed returns the trimmed system. A nil system (with nil error) is
// the vacuous case — sys has no infinite behavior at all.
func (c *limitsCell) trimmed(ctx context.Context, rec obs.Recorder) (*ts.System, error) {
	return c.trim.get(ctx, func() (*ts.System, error) {
		return trimSystem(ctx, rec, c.sys)
	})
}

// get returns the trimmed system and its behavior automaton lim(L), or
// two nils in the vacuous case.
func (c *limitsCell) get(ctx context.Context, rec obs.Recorder) (*ts.System, *buchi.Buchi, error) {
	trimmed, err := c.trimmed(ctx, rec)
	if err != nil || trimmed == nil {
		return nil, nil, err
	}
	behaviors, err := c.lim.get(ctx, func() (*buchi.Buchi, error) {
		return behaviorsOf(rec, trimmed)
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

func (c *propCell) automaton(ctx context.Context, rec obs.Recorder) (*buchi.Buchi, error) {
	return c.pa.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.AutomatonRec(rec, c.ab)
	})
}

func (c *propCell) negation(ctx context.Context, rec obs.Recorder) (*buchi.Buchi, error) {
	return c.notP.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.NegationAutomatonRec(rec, c.ab)
	})
}

// shared holds the single-flight artifact cells of one (system,
// property) pair: lim(L), P→Büchi, ¬P, and pre(L∩P). Each cell is
// built exactly once no matter which goroutine arrives first; the
// instrumentation span for an artifact is emitted by (and attributed
// to) whichever goroutine wins the race to build it. A builder whose
// context is cancelled mid-build leaves the cell empty for the next
// request (see cell).
type shared struct {
	sys  *ts.System
	lim  *limitsCell
	prop *propCell

	prod cell[*nfa.NFA] // pre(L∩P): trim(PrefixNFA(behaviors ∩ P))
}

// pipeline is one goroutine's view of a shared artifact set: the
// single-flight cells plus the recorder this goroutine's spans go to
// and the context its loops poll. The Section 4 decision procedures
// (satisfaction, relative liveness, relative safety) each take a
// pipeline; CheckAll hands all three the same shared cells so each
// artifact — previously rebuilt by every procedure — is constructed
// exactly once per check, even when concurrent checks share the cells.
// A nil ctx never cancels (the plain serial path).
type pipeline struct {
	ctx context.Context
	rec obs.Recorder
	sys *ts.System
	p   Property
	ops buchi.Ops
	sh  *shared
}

func newPipeline(rec obs.Recorder, sys *ts.System, p Property) *pipeline {
	return newPipelineCtx(nil, rec, sys, p)
}

func newPipelineCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property) *pipeline {
	sh := &shared{
		sys:  sys,
		lim:  newLimitsCell(sys),
		prop: &propCell{p: p, ab: sys.Alphabet()},
	}
	return &pipeline{ctx: ctx, rec: rec, sys: sys, p: p, ops: buchi.Ops{Rec: rec, Ctx: ctx}, sh: sh}
}

// newPipelineSharing builds a pipeline over pre-existing cells. Portfolio
// checks use it to share lim(L) across properties (lim non-nil) or the
// property automata across systems (prop non-nil); nil cells are created
// fresh.
func newPipelineSharing(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property, lim *limitsCell, prop *propCell) *pipeline {
	if lim == nil {
		lim = newLimitsCell(sys)
	}
	if prop == nil {
		prop = &propCell{p: p, ab: sys.Alphabet()}
	}
	return &pipeline{ctx: ctx, rec: rec, sys: sys, p: p, ops: buchi.Ops{Rec: rec, Ctx: ctx},
		sh: &shared{sys: sys, lim: lim, prop: prop}}
}

// viewCells returns a pipeline over an externally cached shared-cell
// set (see PipelineCells), attributing spans to rec and polling ctx.
func viewCells(ctx context.Context, rec obs.Recorder, sh *shared, p Property) *pipeline {
	return &pipeline{ctx: ctx, rec: rec, sys: sh.sys, p: p, ops: buchi.Ops{Rec: rec, Ctx: ctx}, sh: sh}
}

// limits returns the trimmed system and its behavior automaton lim(L).
// A nil trimmed system (with nil error) signals the vacuous case: sys
// has no infinite behavior at all.
func (pl *pipeline) limits() (*ts.System, *buchi.Buchi, error) {
	return pl.sh.lim.get(pl.ctx, pl.rec)
}

// property returns the Büchi automaton for P.
func (pl *pipeline) property() (*buchi.Buchi, error) {
	return pl.sh.prop.automaton(pl.ctx, pl.rec)
}

// negation returns the Büchi automaton for ¬P.
func (pl *pipeline) negation() (*buchi.Buchi, error) {
	return pl.sh.prop.negation(pl.ctx, pl.rec)
}

// preProduct returns pre(L∩P), the prefix language of the reduced
// product of the behaviors with the property automaton, shared by the
// Lemma 4.3 and Lemma 4.4 checks. The result is trim; it has zero
// states exactly when L_ω ∩ P = ∅. Must not be called in the vacuous
// case (nil trimmed system).
func (pl *pipeline) preProduct() (*nfa.NFA, error) {
	return pl.sh.prod.get(pl.ctx, func() (*nfa.NFA, error) {
		_, behaviors, err := pl.limits()
		if err != nil {
			return nil, err
		}
		pa, err := pl.property()
		if err != nil {
			return nil, err
		}
		psp := obs.StartSpan(pl.rec, "pre(L∩P)").
			Int("behavior_states", int64(behaviors.NumStates())).
			Int("property_states", int64(pa.NumStates()))
		preLP, explored, err := buchi.PreProductNFACtx(pl.ctx, behaviors, pa)
		if err != nil {
			psp.Tag("aborted", "context")
			psp.End()
			return nil, err
		}
		psp.Int("product_states", int64(explored))
		psp.Int("out_states", int64(preLP.NumStates()))
		psp.End()
		return preLP, nil
	})
}
