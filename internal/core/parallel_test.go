package core

import (
	"math/rand"
	"reflect"
	"testing"

	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/paper"
	"relive/internal/ts"
)

// figureCases returns the paper's Fig 2/3/4 systems with the property
// the paper checks against them.
func figureCases(t *testing.T) []struct {
	name string
	sys  *ts.System
	p    Property
} {
	t.Helper()
	fig2, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := paper.Fig4System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	return []struct {
		name string
		sys  *ts.System
		p    Property
	}{
		{"fig2", fig2, p},
		{"fig3", paper.Fig3System(), p},
		{"fig4", fig4, p},
	}
}

func TestCheckAllParMatchesSerialOnFigures(t *testing.T) {
	for _, tc := range figureCases(t) {
		serial, err := CheckAll(tc.sys, tc.p)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := CheckAllPar(tc.sys, tc.p, workers)
			if err != nil {
				t.Fatalf("%s parallel(%d): %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s parallel(%d) report differs:\nserial:   %+v\nparallel: %+v",
					tc.name, workers, serial, par)
			}
		}
	}
}

func TestCheckAllParMatchesSerialRandomized(t *testing.T) {
	formulas := []*ltl.Formula{
		ltl.MustParse("G F a"),
		ltl.MustParse("F G b"),
		ltl.MustParse("G (a -> F b)"),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		sys := randomSystem(rng, gen.Letters(2), 4+rng.Intn(10))
		for _, f := range formulas {
			p := FromFormula(f, nil)
			serial, serr := CheckAll(sys, p)
			par, perr := CheckAllPar(sys, p, 4)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("trial %d %s: error mismatch: serial=%v parallel=%v", trial, f, serr, perr)
			}
			if serr != nil {
				continue
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("trial %d %s: reports differ:\nserial:   %+v\nparallel: %+v",
					trial, f, serial, par)
			}
		}
	}
}

func TestCheckPortfolioMatchesSerial(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	props := []Property{
		FromFormula(paper.PropertyInfResults(), nil),
		FromFormula(ltl.MustParse("G F request"), nil),
		FromFormula(ltl.MustParse("G (request -> F (result | reject))"), nil),
		FromFormula(ltl.MustParse("F G reject"), nil),
	}
	want := make([]*Report, len(props))
	for i, p := range props {
		if want[i], err = CheckAll(sys, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		got, err := CheckPortfolio(sys, props, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: portfolio reports differ from serial", workers)
		}
	}
}

func TestCheckSystemsPortfolioMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ab := gen.Letters(2)
	var systems []*ts.System
	for i := 0; i < 6; i++ {
		systems = append(systems, randomSystem(rng, ab, 5+rng.Intn(8)))
	}
	p := FromFormula(ltl.MustParse("G F a"), nil)
	want := make([]*Report, len(systems))
	for i, sys := range systems {
		var err error
		if want[i], err = CheckAll(sys, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := CheckSystemsPortfolio(systems, p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: systems-portfolio reports differ from serial", workers)
		}
	}
}

// TestParallelCheckAllSingleFlight pins the single-flight guarantee:
// with all three verdicts racing, each shared artifact is still built
// exactly once.
func TestParallelCheckAllSingleFlight(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	for trial := 0; trial < 10; trial++ {
		tr := obs.NewTrace()
		if _, err := CheckAllParRec(tr, sys, p, 3); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, s := range tr.Spans() {
			counts[s.Name]++
		}
		for _, name := range []string{"trim(L)", "lim(L)", "P→Büchi", "¬P", "pre(L∩P)"} {
			if counts[name] != 1 {
				t.Errorf("trial %d: span %q recorded %d times, want exactly 1", trial, name, counts[name])
			}
		}
		// The three verdict spans must each appear once, under their own
		// worker attribution.
		for _, name := range []string{"core.Satisfies", "core.RelativeLiveness", "core.RelativeSafety"} {
			if counts[name] != 1 {
				t.Errorf("trial %d: span %q recorded %d times, want exactly 1", trial, name, counts[name])
			}
		}
	}
}

// TestParallelSpanAttribution checks that per-goroutine spans parent
// under the CheckAll root and carry worker tags.
func TestParallelSpanAttribution(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	tr := obs.NewTrace()
	if _, err := CheckAllParRec(tr, sys, p, 3); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var root obs.SpanID
	for _, s := range spans {
		if s.Name == "core.CheckAll" {
			root = s.ID
		}
	}
	if root == 0 {
		t.Fatal("no core.CheckAll root span")
	}
	workers := map[string]bool{}
	for _, s := range spans {
		if s.Parent == root && s.Tags["worker"] != "" {
			workers[s.Tags["worker"]] = true
		}
	}
	for _, w := range []string{"satisfies", "rel-liveness", "rel-safety"} {
		if !workers[w] {
			t.Errorf("no top-level span attributed to worker %q (got %v)", w, workers)
		}
	}
}
