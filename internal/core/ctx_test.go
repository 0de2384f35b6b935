package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/ts"
)

// The cancellation suite for the decision-procedure entry points.
// Contract under test, from every entry point:
//
//   - a live context behaves exactly like a nil one (same verdicts);
//   - an expired deadline or cancellation makes the check return
//     promptly with an error wrapping context.DeadlineExceeded /
//     context.Canceled (errors.Is holds);
//   - context errors are never conflated with verdict errors, and a
//     cancelled run never poisons shared artifact cells for later runs.

// hugeSystem builds a strongly connected n-state system with three
// actions whose trim keeps every state, so the behavior automaton, the
// pre(L∩P) product, and the inclusion subset construction are all
// proportional to n — big enough that a short deadline expires mid-loop
// rather than before or after the work.
func hugeSystem(tb testing.TB, n int) *ts.System {
	tb.Helper()
	sys := ts.New(alphabet.FromNames("a", "b", "c"))
	for i := 0; i < n; i++ {
		sys.AddState(fmt.Sprintf("s%d", i))
	}
	ab := sys.Alphabet()
	a, b, c := ab.Symbol("a"), ab.Symbol("b"), ab.Symbol("c")
	for i := 0; i < n; i++ {
		sys.AddTransition(ts.State(i), a, ts.State((i+1)%n))
		sys.AddTransition(ts.State(i), b, ts.State((2*i+1)%n))
		sys.AddTransition(ts.State(i), c, 0)
	}
	sys.SetInitial(0)
	return sys
}

func hugeProperty(tb testing.TB) core.Property {
	tb.Helper()
	f, err := ltl.Parse("G (a -> F (b U c))")
	if err != nil {
		tb.Fatal(err)
	}
	return core.FromFormula(f, nil)
}

const hugeStates = 60_000

// promptly asserts err wraps the wanted context sentinel and the check
// returned well before it could have finished the full construction.
func promptly(t *testing.T, name string, start time.Time, err error, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want errors.Is(err, %v)", name, err, want)
	}
	if errors.Is(err, context.Canceled) && errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: err %v matches both context sentinels", name, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("%s: returned after %v, not a prompt cancellation", name, elapsed)
	}
}

// TestCtxEntryPointsDeadline drives every Section 4 entry point against
// a huge check with a deadline far shorter than the work and requires a
// prompt DeadlineExceeded. The subtests keep the names of the former
// ...Ctx entry points.
func TestCtxEntryPointsDeadline(t *testing.T) {
	sys := hugeSystem(t, hugeStates)
	p := hugeProperty(t)
	entries := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"CheckAllCtx", func(ctx context.Context) error {
			_, err := core.CheckAll(ctx, core.NewPipelineCells(sys, p))
			return err
		}},
		{"RelativeLivenessCtx", func(ctx context.Context) error {
			_, err := core.RelativeLiveness(ctx, core.NewPipelineCells(sys, p))
			return err
		}},
		{"RelativeSafetyCtx", func(ctx context.Context) error {
			_, err := core.RelativeSafety(ctx, core.NewPipelineCells(sys, p))
			return err
		}},
		{"SatisfiesCtx", func(ctx context.Context) error {
			_, err := core.Satisfies(ctx, core.NewPipelineCells(sys, p))
			return err
		}},
		{"CheckPortfolioCtx", func(ctx context.Context) error {
			_, err := core.CheckPortfolio(ctx, sys, []core.Property{p, p}, 2)
			return err
		}},
		{"CheckSystemsPortfolioCtx", func(ctx context.Context) error {
			_, err := core.CheckSystemsPortfolio(ctx, []*ts.System{sys, sys}, p, 2)
			return err
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := e.run(ctx)
			promptly(t, e.name, start, err, context.DeadlineExceeded)
		})
	}
}

// TestCtxEntryPointsPreCancelled: an already-cancelled context returns
// context.Canceled without starting the work.
func TestCtxEntryPointsPreCancelled(t *testing.T) {
	sys := hugeSystem(t, hugeStates)
	p := hugeProperty(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := core.CheckAll(ctx, core.NewPipelineCells(sys, p)); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckAll err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled check ran for %v", elapsed)
	}
}

// TestCtxNilAndBackgroundMatchPlain: a context without a deadline
// changes nothing — a background context gives the verdicts of a nil
// one on a nontrivial system.
func TestCtxNilAndBackgroundMatchPlain(t *testing.T) {
	sys := hugeSystem(t, 40)
	p := hugeProperty(t)
	want, err := core.CheckAll(nil, core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.CheckAll(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Satisfied != want.Satisfied || got.RelativeLiveness != want.RelativeLiveness ||
		got.RelativeSafety != want.RelativeSafety {
		t.Fatalf("CheckAll verdicts = %+v, want %+v", got, want)
	}
}

// TestCtxCancelledRunDoesNotPoisonCells: a deadline-aborted run over
// shared cells must leave them rebuildable — the follow-up uncancelled
// run on the SAME cells must complete with correct verdicts. This is
// the regression test for the sync.Once → cell change: a memoized
// context error would fail the second run too.
func TestCtxCancelledRunDoesNotPoisonCells(t *testing.T) {
	sys := hugeSystem(t, 600)
	p := hugeProperty(t)
	pc := core.NewPipelineCells(sys, p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.CheckAll(ctx, pc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v, want context.Canceled", err)
	}
	// Also abort one mid-flight (deadline) to exercise builder abort.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	_, _ = core.CheckAll(dctx, pc)

	got, err := core.CheckAll(context.Background(), pc)
	if err != nil {
		t.Fatalf("follow-up run on shared cells: %v", err)
	}
	want, err := core.CheckAll(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Satisfied != want.Satisfied || got.RelativeLiveness != want.RelativeLiveness ||
		got.RelativeSafety != want.RelativeSafety {
		t.Fatalf("verdicts after cancelled runs = %+v, want %+v", got, want)
	}
}

// TestCtxErrorNotConflatedWithVerdict: a failing verdict is not a
// context error — the check completes with (result{Holds: false}, nil)
// — and a context error carries no verdict.
func TestCtxErrorNotConflatedWithVerdict(t *testing.T) {
	// Simple system violating G F c: self-loop on a only.
	sys := ts.New(alphabet.FromNames("a", "c"))
	s0 := sys.AddState("s0")
	sys.AddTransition(s0, sys.Alphabet().Symbol("a"), s0)
	sys.SetInitial(s0)
	f, err := ltl.Parse("G F c")
	if err != nil {
		t.Fatal(err)
	}
	p := core.FromFormula(f, nil)

	res, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatalf("negative verdict returned error: %v", err)
	}
	if res.Holds {
		t.Fatal("satisfaction should fail on a^ω vs G F c")
	}
	if isCtx := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded); isCtx {
		t.Fatal("nil error matches context sentinels")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = core.Satisfies(ctx, core.NewPipelineCells(sys, p))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v, want context.Canceled", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("Canceled error also matches DeadlineExceeded")
	}
}

// TestCtxSharedCellsCoalesce: two concurrent CheckAll runs over one
// PipelineCells value must both succeed and agree — the single-flight
// cells make the artifact builds coalesce rather than race.
func TestCtxSharedCellsCoalesce(t *testing.T) {
	sys := hugeSystem(t, 300)
	p := hugeProperty(t)
	pc := core.NewPipelineCells(sys, p)
	type out struct {
		rep *core.Report
		err error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rep, err := core.CheckAll(context.Background(), pc)
			ch <- out{rep, err}
		}()
	}
	a, b := <-ch, <-ch
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent runs: %v, %v", a.err, b.err)
	}
	if a.rep.Satisfied != b.rep.Satisfied || a.rep.RelativeLiveness != b.rep.RelativeLiveness ||
		a.rep.RelativeSafety != b.rep.RelativeSafety {
		t.Fatalf("concurrent runs disagree: %+v vs %+v", a.rep, b.rep)
	}
}
