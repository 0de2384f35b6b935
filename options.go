package relive

import (
	"context"
	"io"
	"runtime"
	"time"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/obs"
)

// Observability re-exports. A Recorder receives spans (nested phase
// timers), counters, and gauges from every decision procedure; Trace is
// the in-memory implementation whose dump powers the CLIs' -stats and
// -trace-json flags. See docs/OBSERVABILITY.md for the span naming
// convention (operations are "<package>.<Op>", lemma/theorem steps use
// the paper's notation and carry a "paper" tag).
type (
	// Recorder receives spans, counters, and gauges; nil means off and
	// costs one nil check per instrumentation point.
	Recorder = obs.Recorder
	// Trace is the in-memory Recorder; safe for concurrent use.
	Trace = obs.Trace
	// TraceDump is the serializable snapshot of a Trace.
	TraceDump = obs.Dump
	// SpanRecord is one recorded phase with duration, automaton sizes,
	// and paper tags.
	SpanRecord = obs.SpanRecord
)

// NewTrace returns an empty in-memory trace recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// ReadTraceJSON parses a dump written by (*Trace).WriteJSON.
func ReadTraceJSON(r io.Reader) (TraceDump, error) { return obs.ReadJSON(r) }

// Checker runs the decision procedures with options attached — a
// Recorder and the statistical engine's settings; the zero value (or
// With() with no options) behaves exactly like the package-level
// functions. Its portfolio methods run on a runtime.GOMAXPROCS(0)
// worker pool and the statistical engine samples on as many walkers;
// every other check runs serially on the calling goroutine.
type Checker struct {
	rec Recorder

	// Statistical engine options (see statistical.go).
	statSeed    int64
	statSamples int
	statSteps   int
	statConf    float64
	fbStates    int
	fbTimeout   time.Duration
	fbSet       bool
}

// Option configures a Checker.
type Option func(*Checker)

// WithRecorder attaches a recorder so every phase of every check run
// through the returned Checker reports spans and metrics to it.
func WithRecorder(rec Recorder) Option {
	return func(c *Checker) { c.rec = rec }
}

// With returns a Checker carrying the given options. Existing
// package-level entry points are unchanged; this is the additive way to
// attach observability:
//
//	tr := relive.NewTrace()
//	res, err := relive.With(relive.WithRecorder(tr)).CheckRelativeLiveness(sys, f)
//	tr.WriteTree(os.Stderr)
func With(opts ...Option) *Checker {
	c := &Checker{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Recorder returns the attached recorder (nil when none).
func (c *Checker) Recorder() Recorder { return c.rec }

// ctx returns ctx carrying the Checker's recorder, if it has one.
func (c *Checker) ctx(ctx context.Context) context.Context {
	if c.rec == nil {
		return ctx
	}
	return obs.ContextWithRecorder(ctx, c.rec)
}

// CheckRelativeLiveness is the package-level CheckRelativeLiveness with
// the Checker's options applied.
func (c *Checker) CheckRelativeLiveness(sys *System, f *Formula) (LivenessResult, error) {
	return c.CheckRelativeLivenessProperty(sys, core.FromFormula(f, nil))
}

// CheckRelativeLivenessProperty is CheckRelativeLiveness for a Property.
func (c *Checker) CheckRelativeLivenessProperty(sys *System, p Property) (LivenessResult, error) {
	return core.RelativeLiveness(c.ctx(context.Background()), core.NewPipelineCells(sys, p))
}

// CheckRelativeSafety is the package-level CheckRelativeSafety with the
// Checker's options applied.
func (c *Checker) CheckRelativeSafety(sys *System, f *Formula) (SafetyResult, error) {
	return c.CheckRelativeSafetyProperty(sys, core.FromFormula(f, nil))
}

// CheckRelativeSafetyProperty is CheckRelativeSafety for a Property.
func (c *Checker) CheckRelativeSafetyProperty(sys *System, p Property) (SafetyResult, error) {
	return core.RelativeSafety(c.ctx(context.Background()), core.NewPipelineCells(sys, p))
}

// CheckSatisfies is the package-level CheckSatisfies with the Checker's
// options applied.
func (c *Checker) CheckSatisfies(sys *System, f *Formula) (SatisfactionResult, error) {
	return c.CheckSatisfiesProperty(sys, core.FromFormula(f, nil))
}

// CheckSatisfiesProperty is CheckSatisfies for a Property.
func (c *Checker) CheckSatisfiesProperty(sys *System, p Property) (SatisfactionResult, error) {
	return core.Satisfies(c.ctx(context.Background()), core.NewPipelineCells(sys, p))
}

// CheckAll is the package-level CheckAll with the Checker's options
// applied. The three verdicts run serially over one shared artifact
// pipeline.
func (c *Checker) CheckAll(sys *System, f *Formula) (*Report, error) {
	return c.CheckAllProperty(sys, core.FromFormula(f, nil))
}

// CheckAllProperty is CheckAll for a Property: CheckAllPropertyCtx
// under context.Background(), so WithStatisticalFallback applies here
// too.
func (c *Checker) CheckAllProperty(sys *System, p Property) (*Report, error) {
	return c.CheckAllPropertyCtx(context.Background(), sys, p)
}

// CheckPropertyPortfolio runs CheckAll for every property against sys
// on a pool of runtime.GOMAXPROCS(0) workers. All properties share the
// trimmed system and its behavior automaton, built once by whichever
// worker needs them first; reports come back in props order with
// verdicts and witnesses identical to checking each property serially.
func (c *Checker) CheckPropertyPortfolio(sys *System, props []Property) ([]*Report, error) {
	return core.CheckPortfolio(c.ctx(context.Background()), sys, props, runtime.GOMAXPROCS(0))
}

// CheckSystemsPortfolio runs CheckAll for one property against every
// system on a pool of runtime.GOMAXPROCS(0) workers. Systems sharing an
// alphabet share the property automaton and its negation. Reports come
// back in systems order, identical to the serial results.
func (c *Checker) CheckSystemsPortfolio(systems []*System, p Property) ([]*Report, error) {
	return core.CheckSystemsPortfolio(c.ctx(context.Background()), systems, p, runtime.GOMAXPROCS(0))
}

// MachineClosed is the package-level MachineClosed with the Checker's
// options applied.
func (c *Checker) MachineClosed(lomega, lambda *Buchi) (MachineClosureResult, error) {
	return core.MachineClosed(c.ctx(context.Background()), lomega, lambda)
}

// SynthesizeFairImplementation is the package-level
// SynthesizeFairImplementation with the Checker's options applied.
func (c *Checker) SynthesizeFairImplementation(sys *System, f *Formula) (*FairImplementation, error) {
	return core.SynthesizeFairImplementation(c.ctx(context.Background()), sys, core.FromFormula(f, nil))
}

// VerifyViaAbstraction is the package-level VerifyViaAbstraction with
// the Checker's options applied.
func (c *Checker) VerifyViaAbstraction(sys *System, h *Hom, eta *Formula) (*AbstractionReport, error) {
	return core.VerifyViaAbstraction(c.ctx(context.Background()), sys, h, eta)
}

// CheckFairAbstract is the package-level CheckFairAbstract with the
// Checker's options applied.
func (c *Checker) CheckFairAbstract(sys *System, h *Hom, kind FairnessKind, eta *Formula) (*FairAbstractReport, error) {
	p := core.FromFormula(eta, ltl.Canonical(h.Dest()))
	return core.CheckFairAbstract(c.ctx(context.Background()), core.NewSystemCells(sys), h, kind, p)
}
