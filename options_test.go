package relive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"relive"
)

func observedServer(t *testing.T) *relive.System {
	t.Helper()
	sys, err := relive.ParseSystemString(`
init idle
idle request busy
busy result idle
busy reject idle
`)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWithRecorder: a Checker with a recorder must produce the same
// verdicts as the default checker and fill the attached trace.
func TestWithRecorder(t *testing.T) {
	sys := observedServer(t)
	p := ltlProperty("G F result")
	ctx := context.Background()

	tr := relive.NewTrace()
	checker := relive.With(relive.WithRecorder(tr))
	rep, err := checker.CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := relive.With().CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfied != plain.Satisfied ||
		rep.RelativeLiveness != plain.RelativeLiveness ||
		rep.RelativeSafety != plain.RelativeSafety {
		t.Errorf("verdicts diverge with recorder: %+v vs %+v", rep, plain)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("recorder saw no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.CheckAll", "Lemma 4.3", "Lemma 4.4", "buchi.Intersect"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("phase tree missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWithNoOptions: With() with no options is the default checker.
func TestWithNoOptions(t *testing.T) {
	sys := observedServer(t)
	res, err := relive.With().CheckRelativeLiveness(context.Background(), sys, ltlProperty("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("G F result should be a relative liveness property of the server")
	}
}

// TestTraceJSONRoundTripPublic: the public re-exports cover the dump
// cycle used by -trace-json consumers.
func TestTraceJSONRoundTripPublic(t *testing.T) {
	sys := observedServer(t)
	tr := relive.NewTrace()
	if _, err := relive.With(relive.WithRecorder(tr)).CheckSatisfies(context.Background(), sys, ltlProperty("G F result")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := relive.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != len(tr.Spans()) {
		t.Errorf("dump has %d spans, trace has %d", len(d.Spans), len(tr.Spans()))
	}
}

// ringSystem is an n-state cycle s0 → s1 → … → s0 whose closing edge
// is labelled result and every other edge step.
func ringSystem(t *testing.T, n int) *relive.System {
	t.Helper()
	var b strings.Builder
	b.WriteString("init s0\n")
	for i := 0; i < n; i++ {
		act := "step"
		if i == n-1 {
			act = "result"
		}
		fmt.Fprintf(&b, "s%d %s s%d\n", i, act, (i+1)%n)
	}
	sys, err := relive.ParseSystemString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStatisticalFallbackPlainCheckAll: over the state gate, CheckAll
// falls back — a sampled report with the sampled verdict in all three
// verdict fields.
func TestStatisticalFallbackPlainCheckAll(t *testing.T) {
	sys := ringSystem(t, 24)
	c := relive.With(relive.WithStatisticalFallback(4, 0))
	rep, err := c.CheckAll(context.Background(), sys, ltlProperty("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Statistical == nil {
		t.Fatal("CheckAll over the state gate returned an exact report")
	}
	holds := rep.Statistical.Holds
	if rep.Satisfied != holds || rep.RelativeLiveness != holds || rep.RelativeSafety != holds {
		t.Errorf("verdict fields %v/%v/%v, sampled verdict %v",
			rep.Satisfied, rep.RelativeLiveness, rep.RelativeSafety, holds)
	}
}

// TestStatisticalFallbackUnderGateIsExact: under the state gate the
// report is the exact one, unmarked.
func TestStatisticalFallbackUnderGateIsExact(t *testing.T) {
	sys := ringSystem(t, 24)
	p := ltlProperty("G F result")
	ctx := context.Background()
	rep, err := relive.With(relive.WithStatisticalFallback(100, 0)).CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Statistical != nil {
		t.Fatal("CheckAll under the state gate returned a sampled report")
	}
	exact, err := relive.With().CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(exact)
	if !bytes.Equal(got, want) {
		t.Errorf("fallback-enabled exact report differs from plain CheckAll:\n%s\n%s", got, want)
	}
}

// TestStatisticalFallbackCancelledCaller: a caller context that is
// already cancelled returns a context error on either side of the
// state gate and never falls back to sampling.
func TestStatisticalFallbackCancelledCaller(t *testing.T) {
	sys := ringSystem(t, 24)
	p := ltlProperty("G F result")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, maxStates := range []int{4, 100} {
		c := relive.With(relive.WithStatisticalFallback(maxStates, time.Hour))
		rep, err := c.CheckAll(ctx, sys, p)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("maxStates %d: err = %v, want context.Canceled", maxStates, err)
		}
		if rep != nil {
			t.Errorf("maxStates %d: cancelled check returned a report: %+v", maxStates, rep)
		}
	}
}
