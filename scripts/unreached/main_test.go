package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureList lists the fixture's unreached functions; the oracle entry
// needs no reason because oracle is exempt.
const fixtureList = `# fixture
fixture/internal/lib.Leaf.isNode	marker method
fixture/internal/lib.Unused	kept to test the tool
fixture/internal/lib.helper	only Unused calls it
fixture/internal/oracle.Reference
`

// TestFixture scans testdata/fixture, whose one root reaches a function
// only from a closure, calls a pointer-receiver and a value-receiver
// method, and instantiates a generic function and a method of a generic
// type. It pins the unreached list and the exit status for the listed
// set, a stale entry and an entry without a reason.
func TestFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	const wantOut = `internal/lib/lib.go:33  3  fixture/internal/lib.Unused
internal/lib/lib.go:38  1  fixture/internal/lib.helper
internal/lib/lib.go:46  1  fixture/internal/lib.Leaf.isNode
internal/oracle/oracle.go:6  1  fixture/internal/oracle.Reference

fixture/internal/lib  3 functions  5 lines
fixture/internal/oracle  1 functions  1 lines
total  4 functions  6 lines
`
	for _, tc := range []struct {
		name, list string
		status     int
		stderr     string // a substring of the standard error; "" for none
	}{
		{"listed", fixtureList, 0, ""},
		{"unlisted", strings.Replace(fixtureList, "fixture/internal/lib.helper\tonly Unused calls it\n", "", 1), 1,
			"fixture/internal/lib.helper (internal/lib/lib.go:38) is unreached but not in unreached.txt"},
		{"stale: linked", fixtureList + "fixture/internal/lib.(*T).Ptr\tcalled now\n", 1,
			"fixture/internal/lib.(*T).Ptr is in unreached.txt but a binary links it now"},
		{"stale: not declared", fixtureList + "fixture/internal/lib.Gone\tdeleted\n", 1,
			"fixture/internal/lib.Gone is in unreached.txt but no longer declared"},
		{"no reason", strings.Replace(fixtureList, "\tkept to test the tool", "", 1), 1,
			"fixture/internal/lib.Unused is in unreached.txt without a reason"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			list := filepath.Join(t.TempDir(), "unreached.txt")
			if err := os.WriteFile(list, []byte(tc.list), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			status := run(config{dir: dir, list: list}, &stdout, &stderr)
			if status != tc.status {
				t.Errorf("exit status %d, want %d; stderr:\n%s", status, tc.status, stderr.String())
			}
			if got := stdout.String(); got != wantOut {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, wantOut)
			}
			if tc.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr:\n%s\nwant it to contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

func TestStripBrackets(t *testing.T) {
	for in, want := range map[string]string{
		"p.F":                         "p.F",
		"p.F[go.shape.int]":           "p.F",
		"p.(*T[go.shape.[]int]).M":    "p.(*T).M",
		"p.T[go.shape.int,bool].M-fm": "p.T.M-fm",
	} {
		if got := stripBrackets(in); got != want {
			t.Errorf("stripBrackets(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAPIExpr(t *testing.T) {
	for line, want := range map[string]string{
		"func With(opts ...Option) *Checker":                                            "facade.With",
		"func (c *Checker) CheckAll(ctx context.Context, sys *System) (*Report, error)": "(*facade.Checker).CheckAll",
		"func (k Kind) String() string":                                                 "facade.Kind.String",
	} {
		got, err := apiExpr(line)
		if err != nil || got != want {
			t.Errorf("apiExpr(%q) = %q, %v; want %q", line, got, err, want)
		}
	}
	if _, err := apiExpr("type Checker struct"); err == nil {
		t.Error("apiExpr accepted a line that is not a func")
	}
}
