package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"relive/internal/fairness"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/paper"
	"relive/internal/rex"
)

// spansGolden holds the expected span shapes of TestGoldenSpanShapes.
const spansGolden = "testdata/spans.golden"

// TestGoldenSpanShapes pins what every check records on the paper's
// Figure 2 system: for each span its name, its parent's name, its tags
// and its Int values, and every counter with its value. The checks run
// serially, so span order is fixed.
func TestGoldenSpanShapes(t *testing.T) {
	got := spanShapes(t)
	want, err := os.ReadFile(filepath.FromSlash(spansGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d differs\n got: %s\nwant: %s", spansGolden, i+1, g, w)
			break
		}
	}
	t.Logf("full dump:\n%s", got)
}

// spanShapes runs the pinned checks and renders their traces.
func spanShapes(t *testing.T) string {
	t.Helper()
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	o, err := rex.ParseOmega(sys.Alphabet(), "(request (yes|no|lock|free)* (result|reject))^w")
	if err != nil {
		t.Fatal(err)
	}
	aut, err := o.Buchi()
	if err != nil {
		t.Fatal(err)
	}
	lim, err := sys.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	ltlP := FromFormula(paper.PropertyInfResults(), nil)
	autP := FromAutomaton(aut)
	third := FromFormula(ltl.MustParse("G (request -> F (result | reject))"), nil)
	h := paper.AbstractionHom(sys)

	var b strings.Builder
	shape := func(label string, run func(obs.Recorder) error) {
		tr := obs.NewTrace()
		err := run(tr)
		writeShape(&b, label, tr, err)
	}
	for _, c := range []struct {
		name string
		p    Property
	}{{"ltl", ltlP}, {"omega", autP}} {
		p := c.p
		shape("CheckAll/"+c.name, func(rec obs.Recorder) error {
			_, err := CheckAll(obs.ContextWithRecorder(context.Background(), rec), NewPipelineCells(sys, p))
			return err
		})
		shape("Satisfies/"+c.name, func(rec obs.Recorder) error {
			_, err := Satisfies(obs.ContextWithRecorder(context.Background(), rec), NewPipelineCells(sys, p))
			return err
		})
		shape("RelativeLiveness/"+c.name, func(rec obs.Recorder) error {
			_, err := RelativeLiveness(obs.ContextWithRecorder(context.Background(), rec), NewPipelineCells(sys, p))
			return err
		})
		shape("RelativeSafety/"+c.name, func(rec obs.Recorder) error {
			_, err := RelativeSafety(obs.ContextWithRecorder(context.Background(), rec), NewPipelineCells(sys, p))
			return err
		})
		shape("CheckStatistical/"+c.name, func(rec obs.Recorder) error {
			_, err := CheckStatistical(obs.ContextWithRecorder(context.Background(), rec), NewSystemCells(sys), p, StatOptions{Samples: 50, Workers: 1})
			return err
		})
		shape("SynthesizeFairImplementation/"+c.name, func(rec obs.Recorder) error {
			_, err := SynthesizeFairImplementation(obs.ContextWithRecorder(context.Background(), rec), sys, p)
			return err
		})
	}
	shape("CheckPortfolio", func(rec obs.Recorder) error {
		_, err := CheckPortfolio(obs.ContextWithRecorder(context.Background(), rec), sys, []Property{ltlP, autP, third}, 1)
		return err
	})
	shape("CheckFairAbstract", func(rec obs.Recorder) error {
		_, err := CheckFairAbstract(obs.ContextWithRecorder(context.Background(), rec), NewSystemCells(sys), h, fairness.Strong, FromFormula(paper.PropertyInfResults(), ltl.Canonical(h.Dest())))
		return err
	})
	shape("VerifyViaAbstraction", func(rec obs.Recorder) error {
		_, err := VerifyViaAbstraction(obs.ContextWithRecorder(context.Background(), rec), sys, h, paper.PropertyInfResults())
		return err
	})
	shape("MachineClosed", func(rec obs.Recorder) error {
		_, err := MachineClosed(obs.ContextWithRecorder(context.Background(), rec), lim, aut)
		return err
	})
	return b.String()
}

// writeShape renders one check's trace: a header with the check's
// error, one line per span in start order, and the counters.
func writeShape(b *strings.Builder, label string, tr *obs.Trace, err error) {
	fmt.Fprintf(b, "%s\n", label)
	if err != nil {
		fmt.Fprintf(b, "  error: %v\n", err)
	}
	spans := tr.Spans()
	names := map[obs.SpanID]string{}
	for _, sp := range spans {
		names[sp.ID] = sp.Name
	}
	for _, sp := range spans {
		parent := "-"
		if sp.Parent != 0 {
			parent = names[sp.Parent]
		}
		fmt.Fprintf(b, "  %s < %s", sp.Name, parent)
		for _, k := range sortedKeysOf(sp.Tags) {
			fmt.Fprintf(b, " %s=%q", k, sp.Tags[k])
		}
		for _, k := range sortedKeysOf(sp.Ints) {
			fmt.Fprintf(b, " #%s=%d", k, sp.Ints[k])
		}
		b.WriteByte('\n')
	}
	counters := tr.Counters()
	b.WriteString("  counters:")
	for _, k := range sortedKeysOf(counters) {
		fmt.Fprintf(b, " %s=%d", k, counters[k])
	}
	b.WriteByte('\n')
}

func sortedKeysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
