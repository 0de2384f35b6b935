package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/gen"
	"relive/internal/ts"
)

// Randomized differential coverage for the portfolio schedulers: on
// arbitrary batches the portfolio verdicts and witnesses must be
// byte-identical to running CheckAll one property (or one system) at a
// time. The shared single-flight cells — one limits cell per portfolio,
// one property cell per alphabet — are exactly where cross-contamination
// between batch entries would hide, so batches deliberately mix
// property kinds, verdict outcomes and worker counts.

// randomBatchProperty draws a property for batch tests: formulas in the
// common case, raw Büchi automata (over the system's own alphabet)
// often enough to exercise the automaton route through the shared
// caches.
func randomBatchProperty(rng *rand.Rand, ab *alphabet.Alphabet) Property {
	if rng.Float64() < 0.3 {
		cfg := gen.Config{States: 2 + rng.Intn(3), Density: 0.5, AcceptRatio: 0.5}
		return FromAutomaton(gen.Buchi(rng, cfg, ab))
	}
	return FromFormula(gen.Formula(rng, ab.Names(), 1+rng.Intn(3)), nil)
}

func TestQuickPortfolioRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ab := gen.Letters(2)
	for trial := 0; trial < 40; trial++ {
		sys := gen.System(rng, ab, 3+rng.Intn(5), 0.25+0.4*rng.Float64())

		// Keep only properties the serial route can decide; the batch
		// must still agree entry by entry.
		var props []Property
		var want []*Report
		for len(props) < 3+rng.Intn(5) {
			p := randomBatchProperty(rng, ab)
			rep, err := CheckAll(context.Background(), NewPipelineCells(sys, p))
			if err != nil {
				continue
			}
			props = append(props, p)
			want = append(want, rep)
		}
		for _, workers := range []int{0, 1, 2, 5} {
			got, err := CheckPortfolio(context.Background(), sys, props, workers)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				for i := range want {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("trial %d workers=%d: report %d differs\nserial:    %+v\nportfolio: %+v\nproperty: %s\nsystem:\n%s",
							trial, workers, i, want[i], got[i], props[i], sys.FormatString())
					}
				}
			}
		}
	}
}

func TestQuickSystemsPortfolioRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	// Two distinct alphabets in one batch: systems sharing an alphabet
	// share one property cell, systems on the other alphabet must get
	// their own — a mixup would translate P over the wrong letters.
	ab1 := gen.Letters(2)
	ab2 := gen.Letters(3)
	for trial := 0; trial < 25; trial++ {
		p := FromFormula(gen.Formula(rng, ab1.Names(), 1+rng.Intn(3)), nil)

		var systems []*ts.System
		var want []*Report
		for len(systems) < 4+rng.Intn(5) {
			ab := ab1
			if rng.Float64() < 0.3 {
				ab = ab2
			}
			sys := gen.System(rng, ab, 3+rng.Intn(5), 0.25+0.4*rng.Float64())
			rep, err := CheckAll(context.Background(), NewPipelineCells(sys, p))
			if err != nil {
				continue
			}
			systems = append(systems, sys)
			want = append(want, rep)
		}
		for _, workers := range []int{0, 1, 3} {
			got, err := CheckSystemsPortfolio(context.Background(), systems, p, workers)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				for i := range want {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("trial %d workers=%d: report %d differs\nserial:    %+v\nportfolio: %+v\nsystem:\n%s",
							trial, workers, i, want[i], got[i], systems[i].FormatString())
					}
				}
			}
		}
	}
}
