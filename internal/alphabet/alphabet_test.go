package alphabet

import "testing"

func TestInterning(t *testing.T) {
	a := New()
	x := a.Symbol("x")
	y := a.Symbol("y")
	if x == y {
		t.Fatalf("distinct names interned to same symbol %d", x)
	}
	if got := a.Symbol("x"); got != x {
		t.Errorf("re-interning x: got %d, want %d", got, x)
	}
	if a.Size() != 2 {
		t.Errorf("Size() = %d, want 2", a.Size())
	}
}

func TestEpsilonReserved(t *testing.T) {
	a := New()
	if got := a.Symbol(EpsilonName); got != Epsilon {
		t.Errorf("Symbol(ε) = %d, want %d", got, Epsilon)
	}
	if a.Symbol("a") == Epsilon {
		t.Error("proper letter interned as ε")
	}
	if a.Size() != 1 {
		t.Errorf("Size() = %d, want 1; ε is not a proper letter", a.Size())
	}
}

func TestLookup(t *testing.T) {
	a := FromNames("req", "res")
	if s, ok := a.Lookup("req"); !ok || a.Name(s) != "req" {
		t.Errorf("Lookup(req) = (%v, %v)", s, ok)
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
	if got := a.Name(Symbol(99)); got != "?99" {
		t.Errorf("Name(99) = %q", got)
	}
}

func TestSymbolsAndNames(t *testing.T) {
	a := FromNames("c", "a", "b")
	syms := a.Symbols()
	if len(syms) != 3 {
		t.Fatalf("Symbols() returned %d symbols, want 3", len(syms))
	}
	names := a.Names()
	want := []string{"c", "a", "b"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	if got := a.String(); got != "{a, b, c}" {
		t.Errorf("String() = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromNames("a")
	c := a.Clone()
	c.Symbol("b")
	if a.Size() != 1 {
		t.Errorf("mutating clone changed original: size %d", a.Size())
	}
	if c.Size() != 2 {
		t.Errorf("clone size = %d, want 2", c.Size())
	}
	if s, _ := c.Lookup("a"); c.Name(s) != "a" {
		t.Error("clone lost symbol a")
	}
}

func TestExtend(t *testing.T) {
	a := FromNames("a", "b")
	b := FromNames("b", "c")
	m := a.Extend(b)
	if m[Epsilon] != Epsilon {
		t.Error("Extend must map ε to ε")
	}
	bs, _ := b.Lookup("b")
	cs, _ := b.Lookup("c")
	if a.Name(m[bs]) != "b" {
		t.Errorf("b mapped to %q", a.Name(m[bs]))
	}
	if a.Name(m[cs]) != "c" {
		t.Errorf("c mapped to %q", a.Name(m[cs]))
	}
	if a.Size() != 3 {
		t.Errorf("extended alphabet size = %d, want 3", a.Size())
	}
}
