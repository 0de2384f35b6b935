package core

import (
	"context"
	"fmt"

	"relive/internal/obs"
	"relive/internal/ts"
)

// This file is the context-aware surface of the Section 4 decision
// procedures. Every ...Ctx entry point is verdict- and witness-identical
// to its plain counterpart; the context is threaded into the pipeline's
// ops so the reachability, product, subset-construction, and emptiness
// loops poll it cooperatively (see internal/interrupt) and return
// context.Canceled / context.DeadlineExceeded — wrapped, so errors.Is
// applies — instead of running the PSPACE-hard work to completion.
//
// It also exports SystemCells and PipelineCells, opaque handles over the
// single-flight artifact cells, so a serving layer can keep trimmed
// systems, property automata, and pre(L∩P) products alive across
// requests: concurrent identical requests coalesce onto one build, and a
// cache hit skips the build entirely. A request cancelled mid-build
// never poisons a cell — the next request simply rebuilds (see cell).

// SystemCells caches the system-only artifacts of the pipeline: the
// trimmed system and its behavior automaton lim(L). One SystemCells
// value may back many PipelineCells for different properties against
// the same system. Safe for concurrent use.
type SystemCells struct {
	sys *ts.System
	lim *limitsCell
}

// NewSystemCells wraps sys in a reusable single-flight artifact handle.
func NewSystemCells(sys *ts.System) *SystemCells {
	return &SystemCells{sys: sys, lim: newLimitsCell(sys)}
}

// System returns the underlying system. Serving layers that cache
// SystemCells by structural hash parse properties against this system's
// alphabet so all artifacts agree on symbol identity.
func (sc *SystemCells) System() *ts.System { return sc.sys }

// PipelineCells caches the full artifact set for one (system, property)
// pair: lim(L), P→Büchi, ¬P, and pre(L∩P). Safe for concurrent use; any
// number of checks may run over one value, coalescing their builds.
type PipelineCells struct {
	sh *shared
	p  Property
}

// NewPipelineCells builds a fresh artifact set for (sys, p).
func NewPipelineCells(sys *ts.System, p Property) *PipelineCells {
	return &PipelineCells{
		sh: &shared{sys: sys, lim: newLimitsCell(sys), prop: &propCell{p: p, ab: sys.Alphabet()}},
		p:  p,
	}
}

// NewPipelineCellsSharing builds an artifact set for property p that
// shares sc's trimmed system and behavior automaton, so checking many
// properties against one cached system trims it exactly once.
func NewPipelineCellsSharing(sc *SystemCells, p Property) *PipelineCells {
	return &PipelineCells{
		sh: &shared{sys: sc.sys, lim: sc.lim, prop: &propCell{p: p, ab: sc.sys.Alphabet()}},
		p:  p,
	}
}

// CheckAllCtx is CheckAll with cooperative cancellation: the three
// verdicts run serially over one single-flight artifact set, and on
// cancellation the returned error wraps ctx.Err().
func CheckAllCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property) (*Report, error) {
	return CheckAllCellsCtx(ctx, rec, NewPipelineCells(sys, p))
}

// CheckAllCellsCtx is CheckAllCtx over a pre-existing (possibly cached)
// artifact set.
func CheckAllCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (*Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: check all: %w", err)
	}
	sp := obs.StartSpan(rec, "core.CheckAll").
		Tag("paper", "Section 4 (cross-checked via Theorem 4.7)")
	defer sp.End()
	return checkAllPipe(viewCells(ctx, rec, pc.sh, pc.p))
}

// SatisfiesCtx is Satisfies (Definition 3.2) with cooperative
// cancellation; the returned error wraps ctx.Err() when cancelled.
func SatisfiesCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property) (SatisfactionResult, error) {
	return SatisfiesCellsCtx(ctx, rec, NewPipelineCells(sys, p))
}

// SatisfiesCellsCtx is SatisfiesCtx over a pre-existing artifact set.
func SatisfiesCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (SatisfactionResult, error) {
	if err := ctxErr(ctx); err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	return satisfiesPipe(viewCells(ctx, rec, pc.sh, pc.p))
}

// RelativeLivenessCtx is RelativeLiveness (Lemma 4.3) with cooperative
// cancellation; the returned error wraps ctx.Err() when cancelled.
func RelativeLivenessCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property) (LivenessResult, error) {
	return RelativeLivenessCellsCtx(ctx, rec, NewPipelineCells(sys, p))
}

// RelativeLivenessCellsCtx is RelativeLivenessCtx over a pre-existing
// artifact set.
func RelativeLivenessCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (LivenessResult, error) {
	if err := ctxErr(ctx); err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness: %w", err)
	}
	return relativeLivenessPipe(viewCells(ctx, rec, pc.sh, pc.p))
}

// RelativeSafetyCtx is RelativeSafety (Lemma 4.4) with cooperative
// cancellation; the returned error wraps ctx.Err() when cancelled.
func RelativeSafetyCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, p Property) (SafetyResult, error) {
	return RelativeSafetyCellsCtx(ctx, rec, NewPipelineCells(sys, p))
}

// RelativeSafetyCellsCtx is RelativeSafetyCtx over a pre-existing
// artifact set.
func RelativeSafetyCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (SafetyResult, error) {
	if err := ctxErr(ctx); err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	return relativeSafetyPipe(viewCells(ctx, rec, pc.sh, pc.p))
}

// CheckPortfolioCtx is CheckPortfolioRec with cooperative cancellation:
// each worker's checks poll ctx, and jobs not yet started when ctx
// expires are abandoned. The first error (preferring a non-context one)
// is returned.
func CheckPortfolioCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, props []Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(rec, "core.CheckPortfolio").
		Int("properties", int64(len(props)))
	defer sp.End()
	lim := newLimitsCell(sys)
	reports := make([]*Report, len(props))
	errs := make([]error, len(props))
	run := func(rec obs.Recorder, i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = err
			return
		}
		pl := newPipelineSharing(ctx, rec, sys, props[i], lim, nil)
		csp := obs.StartSpan(rec, "core.CheckAll").
			Tag("paper", "Section 4 (cross-checked via Theorem 4.7)").
			Tag("property", props[i].String())
		reports[i], errs[i] = checkAllPipe(pl)
		csp.End()
	}
	pool(rec, sp.ID(), len(props), workers, run)
	sp.Int("workers", int64(poolSize(len(props), workers)))
	return reports, portfolioErr(errs, func(i int) string {
		return fmt.Sprintf("portfolio property %d (%s)", i, props[i].String())
	})
}

// CheckSystemsPortfolioCtx is CheckSystemsPortfolioRec with cooperative
// cancellation, sharing property cells per alphabet as the plain
// variant does.
func CheckSystemsPortfolioCtx(ctx context.Context, rec obs.Recorder, systems []*ts.System, p Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(rec, "core.CheckSystemsPortfolio").
		Int("systems", int64(len(systems)))
	defer sp.End()
	cells := propCellsByAlphabet(systems, p)
	reports := make([]*Report, len(systems))
	errs := make([]error, len(systems))
	run := func(rec obs.Recorder, i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = err
			return
		}
		pl := newPipelineSharing(ctx, rec, systems[i], p, nil, cells[systems[i].Alphabet()])
		csp := obs.StartSpan(rec, "core.CheckAll").
			Tag("paper", "Section 4 (cross-checked via Theorem 4.7)").
			Int("system", int64(i))
		reports[i], errs[i] = checkAllPipe(pl)
		csp.End()
	}
	pool(rec, sp.ID(), len(systems), workers, run)
	sp.Int("workers", int64(poolSize(len(systems), workers)))
	return reports, portfolioErr(errs, func(i int) string {
		return fmt.Sprintf("portfolio system %d", i)
	})
}

// portfolioErr reduces per-job errors to one: the first non-context
// error if any (a deterministic failure outranks the cancellation that
// tore the other jobs down), otherwise the first context error. The
// reports slice is discarded by callers on a non-nil return.
func portfolioErr(errs []error, label func(int) string) error {
	for i, err := range errs {
		if err != nil && !isContextError(err) {
			return fmt.Errorf("%s: %w", label(i), err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", label(i), err)
		}
	}
	return nil
}
