package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/ts"
)

const statServerText = `init idle
idle request busy
busy result idle
busy reject idle
`

const statBrokenText = `init broken
broken request busy
busy result broken
busy reject stuck
stuck no stuck
`

func statSys(t *testing.T, text string) *ts.System {
	t.Helper()
	sys, err := ts.ParseString(text)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return sys
}

func TestCheckStatisticalVerdicts(t *testing.T) {
	p := FromFormula(ltl.MustParse("G F result"), nil)

	rep, err := CheckStatistical(context.Background(), NewSystemCells(statSys(t, statServerText)), p, StatOptions{Seed: 5})
	if err != nil {
		t.Fatalf("CheckStatistical(correct): %v", err)
	}
	if rep.Verdict != StatVerdictHolds || !rep.Holds || !rep.Statistical {
		t.Fatalf("correct server: %+v", rep)
	}
	if rep.Hits != rep.Settled || rep.Settled == 0 || rep.CIHigh != 1 || rep.CILow <= 0.9 {
		t.Fatalf("correct server counts implausible: %+v", rep)
	}
	if rep.Method != "clopper-pearson" {
		t.Fatalf("method = %q", rep.Method)
	}

	rep, err = CheckStatistical(context.Background(), NewSystemCells(statSys(t, statBrokenText)), p, StatOptions{Seed: 5})
	if err != nil {
		t.Fatalf("CheckStatistical(broken): %v", err)
	}
	if rep.Verdict != StatVerdictFails || rep.Holds {
		t.Fatalf("broken server: %+v", rep)
	}
	if len(rep.CounterexampleLoop) == 0 {
		t.Fatalf("broken server: no counterexample loop: %+v", rep)
	}
	for _, a := range rep.CounterexampleLoop {
		if a == "result" {
			t.Fatalf("counterexample loop contains result: %v", rep.CounterexampleLoop)
		}
	}
	if l, ok := rep.Witness(); !ok || !l.Valid() {
		t.Fatalf("Witness() = %v, %v on a fails verdict", l, ok)
	}
}

// TestCheckStatisticalVacuous: a system with no infinite behavior holds
// vacuously — there is nothing to sample.
func TestCheckStatisticalVacuous(t *testing.T) {
	sys := statSys(t, "init a\na step b\n")
	rep, err := CheckStatistical(context.Background(), NewSystemCells(sys), FromFormula(ltl.MustParse("G F step"), nil), StatOptions{})
	if err != nil {
		t.Fatalf("CheckStatistical: %v", err)
	}
	if rep.Verdict != StatVerdictHolds || !rep.Vacuous || !rep.Holds || rep.Samples != 0 {
		t.Fatalf("vacuous report: %+v", rep)
	}
}

// TestCheckStatisticalDeterministicJSON is the replay contract the
// serving layer's caches depend on: the marshaled report is a
// byte-identical function of (system, property, options), for any
// worker count.
func TestCheckStatisticalDeterministicJSON(t *testing.T) {
	p := FromFormula(ltl.MustParse("G F result"), nil)
	for _, text := range []string{statServerText, statBrokenText} {
		var base []byte
		for _, workers := range []int{1, 2, 8} {
			rep, err := CheckStatistical(context.Background(), NewSystemCells(statSys(t, text)), p,
				StatOptions{Seed: 11, Samples: 150, Steps: 96, Workers: workers})
			if err != nil {
				t.Fatalf("CheckStatistical(workers=%d): %v", workers, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if base == nil {
				base = got
			} else if string(got) != string(base) {
				t.Fatalf("workers=%d: JSON diverged:\n got %s\nwant %s", workers, got, base)
			}
		}
	}
}

// TestCheckStatisticalAllocationsIndependentOfSamples: on the correct
// server every walk settles and satisfies G F result, and evaluating a
// settled lasso allocates nothing once the worker's scratch has grown,
// so a check allocates the same at 100 samples as at 2,000.
func TestCheckStatisticalAllocationsIndependentOfSamples(t *testing.T) {
	sys := statSys(t, statServerText)
	p := FromFormula(ltl.MustParse("G F result"), nil)
	// The least of five runs: a run also counts a new goroutine for its
	// walker whenever the previous run's has not yet exited.
	allocs := func(samples int) float64 {
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(1, func() {
				rep, err := CheckStatistical(context.Background(), NewSystemCells(sys), p,
					StatOptions{Seed: 1, Samples: samples, Workers: 1})
				if err != nil || rep.Settled != samples || rep.Hits != samples {
					t.Fatalf("CheckStatistical: %+v, %v; want every sample settled and satisfied", rep, err)
				}
			}))
		}
		return least
	}
	if few, many := allocs(100), allocs(2000); few != many {
		t.Fatalf("CheckStatistical allocates %v times at 100 samples, %v at 2,000", few, many)
	}
}

func TestCheckStatisticalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckStatistical(ctx, NewSystemCells(statSys(t, statServerText)),
		FromFormula(ltl.MustParse("G F result"), nil), StatOptions{Samples: 50000, Steps: 4096})
	if err == nil {
		t.Fatalf("want error from cancelled context")
	}
}

// TestCheckStatisticalPhase: the sampling span maps to its own pipeline
// phase so serve's per-phase histograms pick it up.
func TestCheckStatisticalPhase(t *testing.T) {
	if got := PhaseOf("mc.sample"); got != PhaseSample {
		t.Fatalf("PhaseOf(mc.sample) = %q", got)
	}
	if got := PhaseOf("trim(L)"); got != PhaseTrim {
		t.Fatalf("PhaseOf(trim(L)) = %q", got)
	}
	found := false
	for _, p := range Phases {
		if p == PhaseSample {
			found = true
		}
	}
	if !found {
		t.Fatalf("Phases does not list %q", PhaseSample)
	}
}

// TestCheckStatisticalSpans: the check trims the system but never
// builds lim(L), and the mc.sample span and the mc.steps counter report
// the steps the walks actually took — since a walk stops once its
// outcome is fixed, at most samples × steps. On the paper's broken
// server the only bottom SCC is the one-state sink, so every walk stops
// right after its prefix, short of the budget.
func TestCheckStatisticalSpans(t *testing.T) {
	p := FromFormula(ltl.MustParse("G F result"), nil)
	for _, text := range []string{statServerText, statBrokenText} {
		tr := obs.NewTrace()
		o := StatOptions{Seed: 3, Samples: 120, Steps: 64, Workers: 2}
		if _, err := CheckStatistical(obs.ContextWithRecorder(context.Background(), tr), NewSystemCells(statSys(t, text)), p, o); err != nil {
			t.Fatal(err)
		}
		var walked int64 = -1
		counts := map[string]int{}
		for _, sp := range tr.Spans() {
			counts[sp.Name]++
			if sp.Name == "mc.sample" {
				walked = sp.Ints["steps_walked"]
			}
		}
		if counts["trim(L)"] != 1 || counts["lim(L)"] != 0 {
			t.Fatalf("spans trim(L) ×%d, lim(L) ×%d; want 1 and 0", counts["trim(L)"], counts["lim(L)"])
		}
		if walked <= 0 || walked > int64(o.Samples*o.Steps) {
			t.Fatalf("steps_walked = %d, want in (0, %d]", walked, o.Samples*o.Steps)
		}
		if got := tr.Counters()["mc.steps"]; got != walked {
			t.Fatalf("mc.steps = %d, want steps_walked %d", got, walked)
		}
		if text == statBrokenText && walked >= int64(o.Samples*o.Steps) {
			t.Fatalf("steps_walked = %d: walks did not stop once settled", walked)
		}
	}
}
