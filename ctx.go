package relive

import (
	"context"
	"runtime"

	"relive/internal/core"
)

// Context-aware entry points. Each ...Ctx function or method decides
// exactly what its plain counterpart decides — identical verdicts and
// witnesses — but polls ctx cooperatively inside the expensive loops
// (trim fixpoint, Büchi products, subset-construction inclusion,
// emptiness search), so a deadline or cancellation stops the PSPACE
// work promptly. A cancelled check returns an error wrapping
// context.Canceled or context.DeadlineExceeded; test with errors.Is.
// Context errors are never conflated with verdict errors: a completed
// check with a negative verdict returns (result, nil), and a genuine
// verdict error is returned even when a concurrent sibling was torn
// down by the cancellation.

// CheckAllCtx is CheckAll with cooperative cancellation.
func CheckAllCtx(ctx context.Context, sys *System, f *Formula) (*Report, error) {
	return core.CheckAll(ctx, core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckAllPropertyCtx is CheckAllProperty with cooperative cancellation.
func CheckAllPropertyCtx(ctx context.Context, sys *System, p Property) (*Report, error) {
	return core.CheckAll(ctx, core.NewPipelineCells(sys, p))
}

// CheckRelativeLivenessCtx is CheckRelativeLiveness with cooperative
// cancellation.
func CheckRelativeLivenessCtx(ctx context.Context, sys *System, f *Formula) (LivenessResult, error) {
	return core.RelativeLiveness(ctx, core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckRelativeSafetyCtx is CheckRelativeSafety with cooperative
// cancellation.
func CheckRelativeSafetyCtx(ctx context.Context, sys *System, f *Formula) (SafetyResult, error) {
	return core.RelativeSafety(ctx, core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckSatisfiesCtx is CheckSatisfies with cooperative cancellation.
func CheckSatisfiesCtx(ctx context.Context, sys *System, f *Formula) (SatisfactionResult, error) {
	return core.Satisfies(ctx, core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckAllCtx is the Checker's CheckAll with cooperative cancellation;
// the three verdicts run serially and all poll the same context. Under
// WithStatisticalFallback a system over the state budget — or an exact
// run over the time budget — is answered by the sampling engine
// instead (the report's Statistical field marks such answers).
func (c *Checker) CheckAllCtx(ctx context.Context, sys *System, f *Formula) (*Report, error) {
	return c.CheckAllPropertyCtx(ctx, sys, core.FromFormula(f, nil))
}

// CheckAllPropertyCtx is CheckAllCtx for a Property.
func (c *Checker) CheckAllPropertyCtx(ctx context.Context, sys *System, p Property) (*Report, error) {
	if c.fbSet {
		return c.checkAllWithFallback(ctx, sys, p)
	}
	return core.CheckAll(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckRelativeLivenessCtx is the Checker's CheckRelativeLiveness with
// cooperative cancellation.
func (c *Checker) CheckRelativeLivenessCtx(ctx context.Context, sys *System, f *Formula) (LivenessResult, error) {
	return core.RelativeLiveness(c.ctx(ctx), core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckRelativeLivenessPropertyCtx is CheckRelativeLivenessCtx for a
// Property.
func (c *Checker) CheckRelativeLivenessPropertyCtx(ctx context.Context, sys *System, p Property) (LivenessResult, error) {
	return core.RelativeLiveness(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckRelativeSafetyCtx is the Checker's CheckRelativeSafety with
// cooperative cancellation.
func (c *Checker) CheckRelativeSafetyCtx(ctx context.Context, sys *System, f *Formula) (SafetyResult, error) {
	return core.RelativeSafety(c.ctx(ctx), core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckRelativeSafetyPropertyCtx is CheckRelativeSafetyCtx for a
// Property.
func (c *Checker) CheckRelativeSafetyPropertyCtx(ctx context.Context, sys *System, p Property) (SafetyResult, error) {
	return core.RelativeSafety(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckSatisfiesCtx is the Checker's CheckSatisfies with cooperative
// cancellation.
func (c *Checker) CheckSatisfiesCtx(ctx context.Context, sys *System, f *Formula) (SatisfactionResult, error) {
	return core.Satisfies(c.ctx(ctx), core.NewPipelineCells(sys, core.FromFormula(f, nil)))
}

// CheckSatisfiesPropertyCtx is CheckSatisfiesCtx for a Property.
func (c *Checker) CheckSatisfiesPropertyCtx(ctx context.Context, sys *System, p Property) (SatisfactionResult, error) {
	return core.Satisfies(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckPropertyPortfolioCtx is CheckPropertyPortfolio with cooperative
// cancellation: running checks poll ctx and not-yet-started jobs are
// abandoned once it expires.
func (c *Checker) CheckPropertyPortfolioCtx(ctx context.Context, sys *System, props []Property) ([]*Report, error) {
	return core.CheckPortfolio(c.ctx(ctx), sys, props, runtime.GOMAXPROCS(0))
}

// CheckSystemsPortfolioCtx is CheckSystemsPortfolio with cooperative
// cancellation.
func (c *Checker) CheckSystemsPortfolioCtx(ctx context.Context, systems []*System, p Property) ([]*Report, error) {
	return core.CheckSystemsPortfolio(c.ctx(ctx), systems, p, runtime.GOMAXPROCS(0))
}
