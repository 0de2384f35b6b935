package ts

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"relive/internal/alphabet"
)

func productOperands(t *testing.T) (*System, *System) {
	t.Helper()
	parse := func(text string) *System {
		sys, err := ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	left := parse(`
init idle
idle req busy
busy work done
done res idle
busy sync busy
`)
	right := parse(`
init wait
wait sync go
go step wait
go res go
`)
	return left, right
}

// chainProduct composes n 7-state cycles left to right. Component i
// takes six private steps t<i>_0 … t<i>_5 and then the shared step
// sync back to its start, so every combination of positions is
// reachable: 7^n states.
func chainProduct(t *testing.T, n int) *System {
	t.Helper()
	var acc *System
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "init c%d_0\n", i)
		for k := 0; k < 6; k++ {
			fmt.Fprintf(&b, "c%[1]d_%[2]d t%[1]d_%[2]d c%[1]d_%[3]d\n", i, k, k+1)
		}
		fmt.Fprintf(&b, "c%[1]d_6 sync c%[1]d_0\n", i)
		c, err := ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = c
			continue
		}
		if acc, err = Product(acc, c); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// productDigest is the SHA-256 of the state names in number order
// followed by the system's text, so it changes with any renumbering.
func productDigest(s *System) string {
	h := sha256.New()
	for st := 0; st < s.NumStates(); st++ {
		fmt.Fprintln(h, s.StateName(State(st)))
	}
	h.Write([]byte(s.FormatString()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProductGolden pins Product's numbering rule: breadth-first from
// the initial pair, a's actions in interning order, then b's private
// actions. Any change to the numbering changes the digests.
func TestProductGolden(t *testing.T) {
	a, b := productOperands(t)
	ab, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sys    *System
		states int
		want   string
	}{
		{"operands", ab, 6, "d4ae315f0be3e40eb4edbcaed207b2b06b37bd3e9b2011958e12c8da1b917607"},
		{"chain4", chainProduct(t, 4), 2401, "dabe6b3796fd365666aff276d10dbfccab40365302ead1d47135d565faf46949"},
		{"chain5", chainProduct(t, 5), 16807, "b8a119eafd252640979d5a094548ae5333e4e34e88a8c68f1b816116b07fc3af"},
	} {
		if got := tc.sys.NumStates(); got != tc.states {
			t.Errorf("%s: %d states, want %d", tc.name, got, tc.states)
		}
		if got := productDigest(tc.sys); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestProductDeterministic checks that repeated products of the same
// operands are byte-identical, numbering included.
func TestProductDeterministic(t *testing.T) {
	a, b := productOperands(t)
	var want string
	for run := 0; run < 50; run++ {
		got, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		d := productDigest(got)
		if run == 0 {
			want = d
		} else if d != want {
			t.Fatalf("run %d: digest %s, run 0 gave %s\n%s", run, d, want, got.FormatString())
		}
	}
}

func TestProductNoInitial(t *testing.T) {
	a := New(alphabet.New())
	b := New(alphabet.New())
	if _, err := Product(a, b); err == nil {
		t.Fatal("expected error for systems without initial states")
	}
}
