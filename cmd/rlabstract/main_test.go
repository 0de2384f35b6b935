package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const concreteText = `
init idle
idle request deciding
deciding accept granted
deciding deny denied
granted result idle
denied reject idle
`

func writeSystem(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sys.ts")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestObserveWithProperty(t *testing.T) {
	path := writeSystem(t, concreteText)
	var out, errOut strings.Builder
	code := run([]string{
		"-sys", path,
		"-observe", "request, result, reject",
		"-ltl", "G F result",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %s)", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"simple=true",
		"abstract check:     holds=true",
		"Theorem 8.2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestHomSpecAndPrint(t *testing.T) {
	path := writeSystem(t, concreteText)
	var out, errOut strings.Builder
	code := run([]string{
		"-sys", path,
		"-hom", "request=>request, result=>result, reject=>reject, accept=>, deny=>",
		"-print",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d (stderr %s)", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "abstract system:") {
		t.Errorf("missing printed abstract system:\n%s", got)
	}
	if !strings.Contains(got, "init ") {
		t.Errorf("abstract system not in text format:\n%s", got)
	}
}

func TestInconclusiveExitOne(t *testing.T) {
	// Broken variant: once locked, never free again.
	broken := `
init F.idle
F.idle request F.waiting
F.waiting yes F.granted
F.waiting no F.denied
F.granted result F.idle
F.denied reject F.idle
F.idle lock L.idle
L.idle request L.waiting
L.waiting no L.denied
L.denied reject L.idle
`
	path := writeSystem(t, broken)
	var out, errOut strings.Builder
	code := run([]string{
		"-sys", path,
		"-observe", "request,result,reject",
		"-ltl", "G F result",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "simple=false") {
		t.Errorf("expected non-simple verdict:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeSystem(t, concreteText)
	tests := [][]string{
		{},
		{"-sys", path}, // neither -hom nor -observe
		{"-sys", path, "-hom", "a=>x", "-observe", "a"}, // both
		{"-sys", "/nonexistent", "-observe", "a"},
		{"-sys", path, "-hom", "zzz=>x"},                      // unknown letter
		{"-sys", path, "-observe", "request", "-ltl", ")((«"}, // bad formula
	}
	for _, args := range tests {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

func TestPropertyOverHiddenLetterRejected(t *testing.T) {
	path := writeSystem(t, concreteText)
	var out, errOut strings.Builder
	code := run([]string{
		"-sys", path,
		"-observe", "request,result",
		"-ltl", "G F deny", // hidden action
	}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "normal form") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

// TestMaximalWitnessDeterministic: the maximal-word witness is the
// first word a search in symbol order reaches, so runs on the same
// system print byte-identical reports. Each observed letter leads to a
// state whose only move is hidden, so each is a maximal word.
func TestMaximalWitnessDeterministic(t *testing.T) {
	path := writeSystem(t, "init s\ns a x\ns b x\ns d x\ns e x\nx c x\n")
	var first string
	for i := 0; i < 30; i++ {
		var out, errOut strings.Builder
		if code := run([]string{"-sys", path, "-observe", "a,b,d,e"}, &out, &errOut); code != 0 {
			t.Fatalf("run %d: exit = %d (stderr %s)", i, code, errOut.String())
		}
		if i == 0 {
			first = out.String()
			if !strings.Contains(first, "(witness a)") {
				t.Fatalf("output lacks the witness a:\n%s", first)
			}
			continue
		}
		if got := out.String(); got != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, got, first)
		}
	}
}
