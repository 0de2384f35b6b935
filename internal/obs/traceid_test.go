package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !ValidTraceID(id) {
			t.Fatalf("NewTraceID produced invalid id %q", id)
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %q", id)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	valid := "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{valid, true},
		{strings.ToUpper(valid), false},  // w3c mandates lowercase
		{strings.Repeat("0", 32), false}, // all-zero is invalid
		{valid[:31], false},              // wrong length
		{valid[:31] + "g", false},        // non-hex
		{"", false},
	} {
		if got := ValidTraceID(tc.id); got != tc.ok {
			t.Errorf("ValidTraceID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, tc := range []struct {
		header string
		want   string
	}{
		{"00-" + tid + "-00f067aa0ba902b7-01", tid},
		{"00-" + tid + "-00f067aa0ba902b7-00", tid}, // unsampled still accepted
		{"cc-" + tid + "-00f067aa0ba902b7-01", tid}, // future version
		{"ff-" + tid + "-00f067aa0ba902b7-01", ""},  // version ff forbidden
		{"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", ""},
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", ""}, // zero span id
		{"00-" + tid + "-00f067aa0ba902b7", ""},                   // missing flags
		{"not a traceparent", ""},
		{"", ""},
	} {
		got, ok := ParseTraceparent(tc.header)
		if tc.want == "" {
			if ok {
				t.Errorf("ParseTraceparent(%q) accepted, want reject", tc.header)
			}
			continue
		}
		if !ok || got != tc.want {
			t.Errorf("ParseTraceparent(%q) = %q, %v; want %q, true", tc.header, got, ok, tc.want)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	header := Traceparent(id)
	got, ok := ParseTraceparent(header)
	if !ok || got != id {
		t.Fatalf("round trip failed: Traceparent(%q) = %q, parsed back to %q, %v", id, header, got, ok)
	}
	parts := strings.Split(header, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[3] != "01" {
		t.Errorf("Traceparent(%q) = %q, want version 00 and sampled flag 01", id, header)
	}
}

func TestRecorderContext(t *testing.T) {
	if rec := RecorderFromContext(nil); rec != nil {
		t.Fatalf("nil context carries recorder %v", rec)
	}
	if rec := RecorderFromContext(context.Background()); rec != nil {
		t.Fatalf("empty context carries recorder %v", rec)
	}
	tr := NewTrace()
	ctx := ContextWithRecorder(context.Background(), tr)
	if rec := RecorderFromContext(ctx); rec != Recorder(tr) {
		t.Fatalf("recorder through context = %v, want the trace", rec)
	}
	if rec := RecorderFromContext(ContextWithRecorder(ctx, nil)); rec != nil {
		t.Fatalf("a nil recorder did not switch instrumentation off: %v", rec)
	}
	if rec := RecorderFromContext(ContextWithRecorder(nil, tr)); rec != Recorder(tr) {
		t.Fatalf("nil parent lost the recorder: %v", rec)
	}
}

func TestDumpCarriesTraceID(t *testing.T) {
	tr := NewTrace()
	id := NewTraceID()
	tr.SetTraceID(id)
	sp := tr.SpanStart("serve.all")
	tr.SpanEnd(sp)
	d := tr.Dump()
	if d.TraceID != id {
		t.Errorf("dump trace id = %q, want %q", d.TraceID, id)
	}
	if d.OriginUnixNS == 0 {
		t.Error("dump origin is zero, want wall-clock anchor")
	}
	tr.Reset()
	if got := tr.TraceID(); got != "" {
		t.Errorf("Reset kept trace id %q", got)
	}
}
