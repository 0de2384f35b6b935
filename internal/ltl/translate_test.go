package ltl_test

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/gen"
	"relive/internal/genbase"
	"relive/internal/ltl"
)

// menuFormulas is rlperf's property menu: the formulas the service
// translates, with their negations, on every exact benchmark request.
var menuFormulas = []string{
	"G F a",
	"G (a -> F b)",
	"F G c",
	"G F a & G F b",
	"G (b -> X F c)",
	"(G F a) -> (G F b)",
	"G (a -> (b U c))",
	"F G (a | b)",
}

// translate is ltl.TranslateBuchi without a context, under which it
// cannot fail.
func translate(f *ltl.Formula, lab *ltl.Labeling) *buchi.Buchi {
	b, err := ltl.TranslateBuchi(nil, f, lab)
	if err != nil {
		panic(err)
	}
	return b
}

// translationGolden holds the 16 menu automata of TestGoldenTranslation.
const translationGolden = "testdata/translation.golden"

// menuAutomata renders P and ¬P of every menu formula over {a, b, c},
// in menu order.
func menuAutomata() string {
	lab := ltl.Canonical(genbase.Letters(3))
	var sb strings.Builder
	for _, text := range menuFormulas {
		f := ltl.MustParse(text)
		fmt.Fprintf(&sb, "P: %s\n%s", text, translate(f, lab))
		fmt.Fprintf(&sb, "¬P: %s\n%s", text, translate(ltl.Not(f), lab))
	}
	return sb.String()
}

// TestGoldenTranslation pins the automata of the 16 translations the
// service makes on every exact benchmark request: state numbering,
// acceptance and the order of every row. The tableau expands the
// smallest formula of New first, so a change to that order, the node
// identity or the degeneralization shows here.
func TestGoldenTranslation(t *testing.T) {
	got := menuAutomata()
	want, err := os.ReadFile(filepath.FromSlash(translationGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("menu automata differ from %s:\n%s", translationGolden, firstDiff(got, string(want)))
	}
}

// translationCase is one formula translated under one labeling.
type translationCase struct {
	name string
	f    *ltl.Formula
	lab  *ltl.Labeling
}

// corpusFormulas returns the fixed formulas of the translation tests:
// the menu formulas and their negations, FuzzParseLTL's seed corpus
// (its f.Add seeds and testdata/fuzz/FuzzParseLTL), and the properties
// the examples check, with R̄ of each for the abstraction examples'
// concrete side.
func corpusFormulas(t testing.TB) []*ltl.Formula {
	t.Helper()
	var out []*ltl.Formula
	for _, text := range menuFormulas {
		f := ltl.MustParse(text)
		out = append(out, f, ltl.Not(f))
	}
	texts := []string{ // FuzzParseLTL's f.Add seeds
		"G F result",
		"((a U b) R <>c) => []a",
		"!a & b | c <-> X (a W b)",
		"true U eps",
		"□◇result ∧ ¬(a B b)",
	}
	dir := filepath.FromSlash("../../testdata/fuzz/FuzzParseLTL")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				text, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				texts = append(texts, text)
			}
		}
	}
	for _, text := range texts {
		out = append(out, ltl.MustParse(text))
	}
	for _, text := range []string{ // what the examples check
		"G F result",
		"F (a & X a)",
		"G (req0 -> F res0)",
		"G (req1 -> F res1)",
		"G (call -> F (answer | fwdanswer | record))",
		"G (busy -> F (forward | voicemail))",
		"G (forward -> F fwdanswer)",
		"G F eat0",
	} {
		f := ltl.MustParse(text)
		rbar, err := ltl.Rbar(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f, rbar)
	}
	return out
}

// labelings returns the two labelings every case runs under: the
// canonical one over a, b, c and f's own atoms, and the canonical image
// of a homomorphism that keeps those letters and erases one more, so
// that a letter carries only the ε proposition.
func labelings(f *ltl.Formula) []*ltl.Labeling {
	names := []string{"a", "b", "c"}
	for _, a := range f.Atoms() {
		if a != alphabet.EpsilonName && !slices.Contains(names, a) {
			names = append(names, a)
		}
	}
	dst := alphabet.FromNames(names...)
	src := alphabet.FromNames(append(slices.Clone(names), "hidden")...)
	image := func(s alphabet.Symbol) alphabet.Symbol {
		if d, ok := dst.Lookup(src.Name(s)); ok {
			return d
		}
		return alphabet.Epsilon
	}
	return []*ltl.Labeling{ltl.Canonical(dst), ltl.CanonicalImage(src, dst, image)}
}

// translationCases returns every corpus formula and draws random
// gen.Formula draws of depth 1 to 3 over two or three atoms (every
// fourth with ε as one of them), each under both labelings.
func translationCases(t testing.TB, draws int) []translationCase {
	t.Helper()
	var cases []translationCase
	add := func(f *ltl.Formula) {
		for li, lab := range labelings(f) {
			cases = append(cases, translationCase{name: fmt.Sprintf("%s [labeling %d]", f, li), f: f, lab: lab})
		}
	}
	for _, f := range corpusFormulas(t) {
		add(f)
	}
	rng := rand.New(rand.NewSource(2801))
	for i := 0; i < draws; i++ {
		atoms := []string{"a", "b", "c"}[:2+i%2]
		if i%4 == 3 {
			atoms = []string{"a", alphabet.EpsilonName}
		}
		add(gen.Formula(rng, atoms, 1+i%3))
	}
	return cases
}

// TestTranslateMatchesReference requires the indexed tableau to build,
// byte for byte, the automaton of the map-based reference tableau
// (reference_test.go) run in the same fixed order: on the corpus
// formulas and 5,000 random draws, each under a canonical labeling and
// a canonical image labeling with an erased letter.
func TestTranslateMatchesReference(t *testing.T) {
	for _, c := range translationCases(t, 5000) {
		got, want := translate(c.f, c.lab).String(), referenceTranslate(c.f, c.lab).String()
		if got != want {
			t.Fatalf("%s: automata differ from the reference at %s", c.name, firstDiff(got, want))
		}
	}
}

// dumpEnv names the file a child process of
// TestTranslateDeterministicAcrossProcesses writes its automata to.
const dumpEnv = "RELIVE_TRANSLATE_DUMP"

// TestTranslateDeterministicAcrossProcesses translates the corpus and
// 500 random draws, then runs this test binary again to do the same,
// and requires the same bytes. A second process has other map seeds and
// other heap addresses, so an automaton that depends on either differs.
func TestTranslateDeterministicAcrossProcesses(t *testing.T) {
	var sb strings.Builder
	for _, c := range translationCases(t, 500) {
		fmt.Fprintf(&sb, "%s\n%s", c.name, translate(c.f, c.lab))
	}
	got := sb.String()
	if path := os.Getenv(dumpEnv); path != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "automata.txt")
	cmd := exec.Command(os.Args[0], "-test.run=^TestTranslateDeterministicAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), dumpEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("a second process built other automata: %s", firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
	return "no line differs"
}
