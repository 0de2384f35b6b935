package core

import (
	"context"
	"fmt"
	"sync"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
	"relive/internal/obs"
	"relive/internal/ts"
)

// CheckPortfolio runs CheckAll for every property against one system on
// a bounded worker pool of the given size. All properties share one
// SystemCells, so the system is trimmed and its behavior automaton
// lim(L) built exactly once, by whichever worker gets there first;
// everything property-specific (P→Büchi, ¬P, pre(L∩P)) is per property.
// Reports come back in the order of props, with verdicts and witnesses
// identical to running CheckAll serially per property. workers <= 0
// means one worker per property; workers == 1 is the serial path.
//
// The pool opens one "core.CheckPortfolio" span on ctx's recorder; each
// property check runs under a forked per-worker recorder whose
// top-level spans are tagged with the worker name and parented under
// that span, so concurrent span trees stay well-formed (see
// obs.ForkWorker). Each worker's checks poll ctx, and jobs not yet
// started when it expires are abandoned.
func CheckPortfolio(ctx context.Context, sys *ts.System, props []Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(obs.RecorderFromContext(ctx), "core.CheckPortfolio").
		Int("properties", int64(len(props)))
	defer sp.End()
	sc := NewSystemCells(sys)
	return portfolio(ctx, sp, len(props), workers,
		func(i int, csp obs.Span) *PipelineCells {
			csp.Tag("property", props[i].String())
			return NewPipelineCellsSharing(sc, props[i])
		},
		func(i int) string { return fmt.Sprintf("portfolio property %d (%s)", i, props[i].String()) })
}

// CheckSystemsPortfolio runs CheckAll for one property against every
// system on a bounded worker pool, with the same span attribution and
// cancellation as CheckPortfolio. Systems sharing an alphabet (by
// pointer identity) share one single-flight property cell, so P→Büchi
// and ¬P — for formula properties the potentially exponential LTL
// translations — are built once per distinct alphabet rather than once
// per system. Reports come back in the order of systems, identical to
// the serial per-system results.
func CheckSystemsPortfolio(ctx context.Context, systems []*ts.System, p Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(obs.RecorderFromContext(ctx), "core.CheckSystemsPortfolio").
		Int("systems", int64(len(systems)))
	defer sp.End()
	cells := propCellsByAlphabet(systems, p)
	return portfolio(ctx, sp, len(systems), workers,
		func(i int, csp obs.Span) *PipelineCells {
			csp.Int("system", int64(i))
			return &PipelineCells{sc: NewSystemCells(systems[i]), prop: cells[systems[i].Alphabet()]}
		},
		func(i int) string { return fmt.Sprintf("portfolio system %d", i) })
}

// portfolio runs checkAll over n artifact sets on a worker pool, each
// under a "core.CheckAll" span parented under the portfolio's span sp.
// cells returns job i's artifact set and tags its span; label names job
// i in errors.
func portfolio(ctx context.Context, sp obs.Span, n, workers int,
	cells func(i int, csp obs.Span) *PipelineCells, label func(i int) string) ([]*Report, error) {
	reports := make([]*Report, n)
	errs := make([]error, n)
	pool(ctx, sp.ID(), n, workers, func(ctx context.Context, i int) {
		if err := interrupt.Done(ctx); err != nil {
			errs[i] = err
			return
		}
		csp := obs.StartSpan(obs.RecorderFromContext(ctx), "core.CheckAll").
			Tag("paper", "Section 4 (cross-checked via Theorem 4.7)")
		reports[i], errs[i] = checkAll(ctx, cells(i, csp))
		csp.End()
	})
	sp.Int("workers", int64(poolSize(n, workers)))
	if err := portfolioErr(errs, label); err != nil {
		return nil, err
	}
	return reports, nil
}

// portfolioErr reduces per-job errors to one: the first non-context
// error if any (a deterministic failure outranks the cancellation that
// tore the other jobs down), otherwise the first context error.
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

// propCellsByAlphabet allocates one shared property cell per distinct
// alphabet (by pointer identity) across systems.
func propCellsByAlphabet(systems []*ts.System, p Property) map[*alphabet.Alphabet]*propCell {
	cells := map[*alphabet.Alphabet]*propCell{}
	for _, sys := range systems {
		ab := sys.Alphabet()
		if cells[ab] == nil {
			cells[ab] = &propCell{p: p, ab: ab}
		}
	}
	return cells
}

// poolSize resolves the worker count: at most one worker per job,
// at least one; workers <= 0 means one per job.
func poolSize(jobs, workers int) int {
	if workers <= 0 || workers > jobs {
		return jobs
	}
	return workers
}

// pool runs jobs 0..n-1 on a bounded worker pool. Each worker runs its
// jobs under ctx carrying its own forked recorder ("worker-<k>")
// parented under parent, and pulls job indices from a shared channel,
// so job-to-worker assignment is scheduling-dependent but the result
// slice indexing (and thus the output order) is not. workers == 1
// degenerates to a plain serial loop under the caller's ctx.
func pool(ctx context.Context, parent obs.SpanID, n, workers int, run func(context.Context, int)) {
	w := poolSize(n, workers)
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(ctx, i)
		}
		return
	}
	rec := obs.RecorderFromContext(ctx)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			wctx := obs.ContextWithRecorder(ctx, obs.ForkWorker(rec, fmt.Sprintf("worker-%d", k), parent))
			for i := range jobs {
				run(wctx, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
