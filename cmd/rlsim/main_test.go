package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSystem(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sys.ts")
	text := `
init idle
idle request busy
busy result idle
busy reject idle
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFairTrace(t *testing.T) {
	path := writeSystem(t)
	var out, errOut strings.Builder
	if code := run([]string{"-sys", path, "-steps", "10"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d (stderr %s)", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "initial: idle") {
		t.Errorf("missing initial state:\n%s", got)
	}
	if !strings.Contains(got, "result") || !strings.Contains(got, "reject") {
		t.Errorf("fair trace should contain both outcomes:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 11 {
		t.Errorf("trace has %d lines, want 11", lines)
	}
}

func TestRandomTraceDeterministicSeed(t *testing.T) {
	path := writeSystem(t)
	var out1, out2, errOut strings.Builder
	if code := run([]string{"-sys", path, "-sched", "random", "-seed", "5", "-steps", "12"}, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if code := run([]string{"-sys", path, "-sched", "random", "-seed", "5", "-steps", "12"}, &out2, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("same seed produced different random traces")
	}
}

// TestRandomTraceGolden pins the uniform random scheduler's traces for
// fixed seeds, including a run that stops at a dead end.
func TestRandomTraceGolden(t *testing.T) {
	deadEnd := filepath.Join(t.TempDir(), "dead.ts")
	if err := os.WriteFile(deadEnd, []byte("init x\nx a y\nx b x\ny a dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, seed, steps, initial string
		actions                    []string
	}{
		{writeSystem(t), "5", "12", "idle", strings.Fields(
			"request result request result request result request reject request result request result")},
		{deadEnd, "1", "10", "x", strings.Fields("b b b b b a a")},
	} {
		var out, errOut strings.Builder
		if code := run([]string{"-sys", tc.path, "-sched", "random", "-seed", tc.seed, "-steps", tc.steps}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d (stderr %s)", code, errOut.String())
		}
		want := fmt.Sprintf("initial: %s\n", tc.initial)
		for i, a := range tc.actions {
			want += fmt.Sprintf("%4d  %s\n", i+1, a)
		}
		if out.String() != want {
			t.Errorf("seed %s trace:\n%s\nwant:\n%s", tc.seed, out.String(), want)
		}
	}
}

func TestProbabilityEstimate(t *testing.T) {
	path := writeSystem(t)
	var out, errOut strings.Builder
	code := run([]string{"-sys", path, "-ltl", "G F result", "-runs", "50", "-steps", "60"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d (stderr %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "≈ 1.000") {
		t.Errorf("expected probability 1.000 for a relative liveness property:\n%s", out.String())
	}
}

// TestProbabilityNeedsSettledRuns: a one-step walk cannot settle into
// a bottom SCC, and a system without an infinite run has nothing to
// sample, so neither gives an estimate.
func TestProbabilityNeedsSettledRuns(t *testing.T) {
	finite := filepath.Join(t.TempDir(), "finite.ts")
	if err := os.WriteFile(finite, []byte("init x\nx a y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, ltl, steps, why string
	}{
		{writeSystem(t), "G F result", "1", "within 1 steps"},
		{finite, "G F a", "40", "no infinite run"},
	} {
		var out, errOut strings.Builder
		if code := run([]string{"-sys", tc.path, "-ltl", tc.ltl, "-steps", tc.steps}, &out, &errOut); code != 2 {
			t.Fatalf("exit = %d, want 2 (stdout %s)", code, out.String())
		}
		if !strings.Contains(errOut.String(), tc.why) {
			t.Errorf("stderr %q does not say %q", errOut.String(), tc.why)
		}
	}
}

func TestErrors(t *testing.T) {
	path := writeSystem(t)
	for _, args := range [][]string{
		{},
		{"-sys", "/nonexistent"},
		{"-sys", path, "-sched", "bogus"},
		{"-sys", path, "-ltl", "(("},
		{"-sys", path, "-steps", "-1"},
		{"-sys", path, "-sched", "random", "-steps", "-1"},
		{"-sys", path, "-ltl", "G F result", "-steps", "-1"},
		{"-sys", path, "-ltl", "G F result", "-steps", "0"},
		{"-sys", path, "-ltl", "G F result", "-runs", "0"},
		{"-sys", path, "-ltl", "G F result", "-runs", "-3"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// TestMalformedSystemContent: a present-but-unparsable file exits 2.
func TestMalformedSystemContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ts")
	if err := os.WriteFile(path, []byte("garbage that is not a system\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-sys", path}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr %s)", code, errOut.String())
	}
}

// TestProfileFlags: the pprof flags must produce non-empty files.
func TestProfileFlags(t *testing.T) {
	path := writeSystem(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errOut strings.Builder
	code := run([]string{"-sys", path, "-steps", "10", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d (stderr %s)", code, errOut.String())
	}
	for _, p := range []string{cpu, mem} {
		if info, err := os.Stat(p); err != nil {
			t.Errorf("profile not written: %v", err)
		} else if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
