package hom

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
)

// TestIsSimpleWitnessReachesFailingConfiguration: when IsSimple answers
// "not simple", its witness w must lead to a configuration at which
// Definition 6.3 fails — w's state in the DFA of L paired with h(w)'s
// state in the DFA of h(L) — judged by pairIsSimple over the per-q
// analysis built as IsSimple builds it. IsSimple searches breadth first
// and stops at the first failing configuration, so every accepting
// configuration on w's proper prefixes must pass. Membership of w in L
// is not enough: ε is in every non-empty prefix-closed L.
func TestIsSimpleWitnessReachesFailingConfiguration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	src := alphabet.FromNames("a", "b", "c")
	dst := alphabet.FromNames("x", "y")
	const trials = 600
	notSimple, hiding := 0, 0
	for trial := 0; trial < trials; trial++ {
		cfg := genbase.Config{States: 4 + rng.Intn(5), Symbols: 3, Density: 0.5, AcceptRatio: 0.5}
		a := genbase.NFA(rng, cfg, src)
		if trial%2 == 0 {
			a = a.MarkAllAccepting() // prefix-closed, as system languages are
		}
		h := New(src, dst)
		hides := false
		for _, name := range []string{"a", "b", "c"} {
			switch rng.Intn(3) {
			case 0:
				h.SetByName(name, "")
				hides = true
			case 1:
				h.SetByName(name, "x")
			default:
				h.SetByName(name, "y")
			}
		}
		if hides {
			hiding++
		}
		res, err := h.IsSimple(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Simple {
			continue
		}
		notSimple++
		w := res.Witness
		d := a.Determinize().Trim()
		dImg := h.ImageNFA(a).Determinize().Trim()
		dImgC := dImg.Complete()
		analyze := h.analyzer(d, dImgC)
		q, qi := d.Initial(), dImg.Initial()
		for k := 0; ; k++ {
			if d.Accepting(q) {
				ok, err := h.pairIsSimple(dImgC, qi, analyze, q)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if k == len(w) && ok {
					t.Fatalf("trial %d: h = %s: Definition 6.3 holds at the configuration of witness %s",
						trial, h, w.String(src))
				}
				if k < len(w) && !ok {
					t.Fatalf("trial %d: h = %s: Definition 6.3 already fails at prefix %s of witness %s",
						trial, h, w[:k].String(src), w.String(src))
				}
			}
			if k == len(w) {
				if !d.Accepting(q) {
					t.Fatalf("trial %d: witness %s not in L", trial, w.String(src))
				}
				break
			}
			var ok bool
			if q, ok = d.Delta(q, w[k]); !ok {
				t.Fatalf("trial %d: witness %s leaves pre(L)", trial, w.String(src))
			}
			if img := h.Image(w[k]); img != alphabet.Epsilon {
				if qi, ok = dImg.Delta(qi, img); !ok {
					t.Fatalf("trial %d: h(%s) leaves pre(h(L))", trial, w[:k+1].String(src))
				}
			}
		}
	}
	// The property is vacuous unless both answers and hiding occur.
	if notSimple < trials/10 || notSimple == trials || hiding < trials/2 {
		t.Fatalf("%d of %d pairs not simple, %d with a hiding hom: generator too narrow",
			notSimple, trials, hiding)
	}
	t.Logf("%d of %d pairs not simple, %d with a hiding hom", notSimple, trials, hiding)
}
