package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/paper"
	"relive/internal/ts"
)

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
		if want[i], err = CheckAll(context.Background(), NewPipelineCells(sys, p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		got, err := CheckPortfolio(context.Background(), sys, props, workers)
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
		if want[i], err = CheckAll(context.Background(), NewPipelineCells(sys, p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := CheckSystemsPortfolio(context.Background(), systems, p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: systems-portfolio reports differ from serial", workers)
		}
	}
}

// TestCheckAllCellsConcurrentSingleFlight runs the concurrency the
// service has: several requests checking one cached artifact set at
// once, each under its own trace. Every shared artifact is built by
// exactly one of them, and all get the same report.
func TestCheckAllCellsConcurrentSingleFlight(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	const callers = 4
	for trial := 0; trial < 10; trial++ {
		pc := NewPipelineCells(sys, p)
		var (
			wg      sync.WaitGroup
			start   = make(chan struct{})
			traces  [callers]*obs.Trace
			reports [callers]*Report
			errs    [callers]error
		)
		for i := range traces {
			traces[i] = obs.NewTrace()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				reports[i], errs[i] = CheckAll(obs.ContextWithRecorder(context.Background(), traces[i]), pc)
			}(i)
		}
		close(start)
		wg.Wait()
		counts := map[string]int{}
		for i, tr := range traces {
			if errs[i] != nil {
				t.Fatalf("trial %d caller %d: %v", trial, i, errs[i])
			}
			if !reflect.DeepEqual(reports[0], reports[i]) {
				t.Errorf("trial %d: caller %d report differs:\n%+v\n%+v", trial, i, reports[0], reports[i])
			}
			for _, s := range tr.Spans() {
				counts[s.Name]++
			}
		}
		for _, name := range []string{"trim(L)", "lim(L)", "P→Büchi", "¬P", "pre(L∩P)"} {
			if counts[name] != 1 {
				t.Errorf("trial %d: span %q recorded %d times across %d traces, want exactly 1",
					trial, name, counts[name], callers)
			}
		}
	}
}

// TestPortfolioSpanAttribution checks the pool's span attribution: each
// property's core.CheckAll span parents under the core.CheckPortfolio
// root with its worker's tag, and the shared system artifacts are built
// once for all properties.
func TestPortfolioSpanAttribution(t *testing.T) {
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
	const workers = 3
	tr := obs.NewTrace()
	if _, err := CheckPortfolio(obs.ContextWithRecorder(context.Background(), tr), sys, props, workers); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var root obs.SpanID
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == "core.CheckPortfolio" {
			root = s.ID
		}
	}
	if root == 0 {
		t.Fatal("no core.CheckPortfolio root span")
	}
	if counts["core.CheckAll"] != len(props) {
		t.Errorf("%d core.CheckAll spans, want %d", counts["core.CheckAll"], len(props))
	}
	for _, s := range spans {
		if s.Name != "core.CheckAll" {
			continue
		}
		if s.Parent != root {
			t.Errorf("core.CheckAll span %d (%s) parents under %d, want the portfolio root %d",
				s.ID, s.Tags["property"], s.Parent, root)
		}
		var k int
		if _, err := fmt.Sscanf(s.Tags["worker"], "worker-%d", &k); err != nil || k < 0 || k >= workers {
			t.Errorf("core.CheckAll span %d (%s) has worker tag %q, want worker-k for k < %d",
				s.ID, s.Tags["property"], s.Tags["worker"], workers)
		}
	}
	for _, name := range []string{"trim(L)", "lim(L)"} {
		if counts[name] != 1 {
			t.Errorf("span %q recorded %d times, want exactly 1", name, counts[name])
		}
	}
}
