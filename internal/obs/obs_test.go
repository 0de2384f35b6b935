package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	root := StartSpan(tr, "root")
	a := StartSpan(tr, "a")
	aa := StartSpan(tr, "a.a")
	aa.End()
	a.End()
	b := StartSpan(tr, "b").Tag("paper", "Lemma 4.3").Int("states", 7)
	b.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	parentOf := map[string]SpanID{}
	idOf := map[string]SpanID{}
	for _, s := range spans {
		parentOf[s.Name] = s.Parent
		idOf[s.Name] = s.ID
		if s.DurationNS < 0 {
			t.Errorf("span %s still open", s.Name)
		}
	}
	if parentOf["root"] != 0 {
		t.Errorf("root has parent %d, want 0", parentOf["root"])
	}
	if parentOf["a"] != idOf["root"] || parentOf["b"] != idOf["root"] {
		t.Errorf("a/b parents = %d/%d, want %d", parentOf["a"], parentOf["b"], idOf["root"])
	}
	if parentOf["a.a"] != idOf["a"] {
		t.Errorf("a.a parent = %d, want %d", parentOf["a.a"], idOf["a"])
	}
	sb, ok := tr.Find("b")
	if !ok || sb.Tags["paper"] != "Lemma 4.3" || sb.Ints["states"] != 7 {
		t.Errorf("span b attributes not recorded: %+v", sb)
	}
}

func TestUnbalancedEndClosesDescendants(t *testing.T) {
	tr := NewTrace()
	root := StartSpan(tr, "root")
	StartSpan(tr, "leaked") // never ended by its owner
	root.End()
	next := StartSpan(tr, "next")
	next.End()
	for _, s := range tr.Spans() {
		if s.Name == "next" && s.Parent != 0 {
			t.Errorf("next nested under %d; leaked span corrupted the stack", s.Parent)
		}
	}
}

// TestNilRecorderAllocationFree is the ISSUE acceptance check: with no
// recorder attached the entire span/counter/gauge surface must cost a
// nil check and zero allocations.
func TestNilRecorderAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(nil, "buchi.Intersect")
		sp = sp.Tag("paper", "Lemma 4.3").Int("states", 42)
		sp.Count("calls", 1)
		Count(nil, "calls", 1)
		Gauge(nil, "peak", 9)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path allocates %v per op, want 0", allocs)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := NewTrace()
	Count(tr, "c", 2)
	Count(tr, "c", 3)
	Gauge(tr, "g", 10)
	Gauge(tr, "g", 4)
	if got := tr.Counters()["c"]; got != 5 {
		t.Errorf("counter c = %d, want 5", got)
	}
	if got := tr.Gauges()["g"]; got != 4 {
		t.Errorf("gauge g = %d, want 4 (last value)", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	root := StartSpan(tr, "core.RelativeLiveness").Tag("paper", "Lemma 4.3: pre(L) = pre(L∩P)")
	child := StartSpan(tr, "buchi.Intersect").Int("out_states", 12)
	child.End()
	root.End()
	Count(tr, "buchi.intersect.calls", 1)
	Gauge(tr, "peak_states", 12)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip: %v\nJSON:\n%s", err, buf.String())
	}
	want := tr.Dump()
	if len(d.Spans) != len(want.Spans) {
		t.Fatalf("round-trip spans = %d, want %d", len(d.Spans), len(want.Spans))
	}
	for i := range d.Spans {
		g, w := d.Spans[i], want.Spans[i]
		if g.Name != w.Name || g.Parent != w.Parent || g.DurationNS != w.DurationNS {
			t.Errorf("span %d differs after round-trip: got %+v want %+v", i, g, w)
		}
		if g.Tags["paper"] != w.Tags["paper"] {
			t.Errorf("span %d tag lost: got %v want %v", i, g.Tags, w.Tags)
		}
	}
	if d.Counters["buchi.intersect.calls"] != 1 || d.Gauges["peak_states"] != 12 {
		t.Errorf("metrics lost in round-trip: %+v %+v", d.Counters, d.Gauges)
	}
}

func TestReadJSONRejectsCorruptDumps(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"spans":[{"id":2,"name":"x","start_ns":0,"duration_ns":1}]}`,
		`{"spans":[{"id":1,"parent":5,"name":"x","start_ns":0,"duration_ns":1}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadJSON accepted corrupt dump %q", bad)
		}
	}
}

func TestWriteTree(t *testing.T) {
	tr := NewTrace()
	root := StartSpan(tr, "core.RelativeLiveness").Tag("paper", "Lemma 4.3")
	child := StartSpan(tr, "buchi.Intersect").Int("out_states", 12)
	child.End()
	sib := StartSpan(tr, "pre(L) ⊆ pre(L∩P)")
	sib.End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"core.RelativeLiveness",
		"[paper: Lemma 4.3]",
		"├─ buchi.Intersect",
		"out_states=12",
		"└─ pre(L) ⊆ pre(L∩P)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUse exercises the Trace under parallel recording; run
// with -race (the Makefile test target does) to verify the mutex
// discipline.
func TestConcurrentUse(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := StartSpan(tr, "op").Int("i", int64(i)).Tag("k", "v")
				Count(tr, "ops", 1)
				Gauge(tr, "last", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*perWorker {
		t.Errorf("recorded %d spans, want %d", got, workers*perWorker)
	}
	if got := tr.Counters()["ops"]; got != workers*perWorker {
		t.Errorf("counter ops = %d, want %d", got, workers*perWorker)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err != nil {
		t.Errorf("concurrent trace does not round-trip: %v", err)
	}
}

func TestReset(t *testing.T) {
	tr := NewTrace()
	StartSpan(tr, "x").End()
	Count(tr, "c", 1)
	tr.Reset()
	if len(tr.Spans()) != 0 || len(tr.Counters()) != 0 {
		t.Error("Reset did not clear the trace")
	}
	StartSpan(tr, "y").End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("trace unusable after Reset: %d spans", got)
	}
}
