package gen

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
)

func TestLetters(t *testing.T) {
	ab := Letters(3)
	if ab.Size() != 3 {
		t.Fatalf("size = %d", ab.Size())
	}
	names := ab.Names()
	want := []string{"a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// Names beyond z extend like spreadsheet columns.
	big := Letters(28)
	bigNames := big.Names()
	if bigNames[26] != "aa" || bigNames[27] != "ab" {
		t.Errorf("names[26:28] = %v", bigNames[26:28])
	}
}

func TestNFAShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ab := Letters(2)
	cfg := Config{States: 6, Symbols: 2, Density: 0.8, AcceptRatio: 0.5}
	a := NFA(rng, cfg, ab)
	if a.NumStates() != 6 {
		t.Errorf("states = %d, want 6", a.NumStates())
	}
	if len(a.Initial()) != 1 {
		t.Errorf("initial = %v", a.Initial())
	}
}

func TestDFAShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ab := Letters(2)
	d := DFA(rng, DefaultConfig(), ab)
	if d.NumStates() != DefaultConfig().States {
		t.Errorf("states = %d", d.NumStates())
	}
	if d.Initial() != 0 {
		t.Errorf("initial = %d", d.Initial())
	}
}

func TestWordAndLasso(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ab := Letters(2)
	w := Word(rng, ab, 10)
	if len(w) != 10 {
		t.Errorf("word length %d", len(w))
	}
	for i := 0; i < 50; i++ {
		l := Lasso(rng, ab, 3, 4)
		if !l.Valid() {
			t.Fatal("invalid lasso generated")
		}
		if len(l.Prefix) > 3 || len(l.Loop) > 4 || len(l.Loop) < 1 {
			t.Fatalf("lasso shape out of bounds: %d/%d", len(l.Prefix), len(l.Loop))
		}
	}
}

func TestWordsEnumeration(t *testing.T) {
	ab := Letters(2)
	ws := Words(ab, 3)
	// 1 + 2 + 4 + 8 = 15 words.
	if len(ws) != 15 {
		t.Fatalf("enumerated %d words, want 15", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		k := w.String(ab)
		if seen[k] {
			t.Fatalf("duplicate word %s", k)
		}
		seen[k] = true
	}
}

func TestBuchiShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ab := Letters(2)
	for i := 0; i < 20; i++ {
		b := Buchi(rng, DefaultConfig(), ab)
		if b.NumStates() != DefaultConfig().States {
			t.Fatalf("states = %d", b.NumStates())
		}
		if b.NumAccepting() == 0 {
			t.Fatal("no accepting state forced")
		}
		if len(b.Initial()) != 1 {
			t.Fatalf("initial = %v", b.Initial())
		}
	}
}

func TestSystemShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ab := Letters(3)
	s := System(rng, ab, 7, 0.5)
	if s.NumStates() != 7 {
		t.Fatalf("states = %d", s.NumStates())
	}
	if s.Initial() != 0 {
		t.Fatalf("initial = %d", s.Initial())
	}
}

func TestFormulaDepthAndAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	atoms := []string{"a", "b"}
	for i := 0; i < 100; i++ {
		f := Formula(rng, atoms, 3)
		if f.Size() > 1<<5 {
			t.Fatalf("formula too large for depth 3: size %d", f.Size())
		}
		for _, a := range f.Atoms() {
			if a != "a" && a != "b" {
				t.Fatalf("unexpected atom %q", a)
			}
		}
		// The full syntax must survive normalization.
		f.Normalize()
	}
}

func TestHomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := Letters(3)
	for i := 0; i < 50; i++ {
		h := Hom(rng, src, 0.5)
		visible := 0
		for _, s := range src.Symbols() {
			if h.Image(s) != alphabet.Epsilon {
				visible++
			}
		}
		if visible == 0 {
			t.Fatal("Hom hid every letter")
		}
		ih := IdentityHom(rng, src, 0.5)
		for _, s := range src.Symbols() {
			img := ih.Image(s)
			if img != alphabet.Epsilon && ih.Dest().Name(img) != src.Name(s) {
				t.Fatalf("IdentityHom renamed %s to %s", src.Name(s), ih.Dest().Name(img))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	ab := Letters(2)
	a1 := NFA(rand.New(rand.NewSource(7)), DefaultConfig(), ab)
	a2 := NFA(rand.New(rand.NewSource(7)), DefaultConfig(), ab)
	if a1.String() != a2.String() {
		t.Error("same seed produced different automata")
	}
}
