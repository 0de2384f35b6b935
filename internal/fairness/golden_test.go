package fairness_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/ts"
)

// goldenFairRunsDigest is the SHA-256 of every verdict and witness edge
// TestGoldenFairRuns produces; see that test for what it covers.
const goldenFairRunsDigest = "6011a08e6361f151f0039d4a7f2a3592eca6831a5c9bb7e42a6b4e0792ee3ca2"

// TestGoldenFairRuns pins the Streett search's output edge for edge:
// one digest over ExistsFairRunCtx's verdict and the prefix and loop of
// its witness, under strong and weak fairness, on raw random systems
// over a, b, c (3 to 48 states, densities 0.2 to 0.5, so dead ends
// occur) against random Büchi properties of 1 to 6 states. The
// fair-abstract endpoint puts these runs on the wire, so a change to
// the product's exploration order, the SCC restriction or the lasso
// stitching changes the digest.
func TestGoldenFairRuns(t *testing.T) {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putEdges := func(es []ts.Edge) {
		put(int64(len(es)))
		for _, e := range es {
			put(int64(e.From))
			put(int64(e.Sym))
			put(int64(e.To))
		}
	}
	ab := gen.Letters(3)
	var checks, found int
	for ni, n := range []int{3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48} {
		for di, density := range []float64{0.2, 0.3, 0.4, 0.5} {
			rng := rand.New(rand.NewSource(int64(100*ni + di)))
			sys := gen.System(rng, ab, n, density)
			for k := 0; k < 5; k++ {
				states := 1 + (ni+2*di+k)%6
				prop := gen.Buchi(rng, gen.Config{States: states, Symbols: 3, Density: 0.7, AcceptRatio: 0.4}, ab)
				for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
					run, ok, err := fairness.ExistsFairRunCtx(context.Background(), sys, prop, kind)
					if err != nil {
						t.Fatalf("n=%d density=%v k=%d kind=%d: %v", n, density, k, kind, err)
					}
					checks++
					if !ok {
						put(0)
						continue
					}
					found++
					if err := run.Validate(sys); err != nil {
						t.Fatalf("n=%d density=%v k=%d kind=%d: witness: %v", n, density, k, kind, err)
					}
					put(1)
					putEdges(run.Prefix)
					putEdges(run.Loop)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d checks, %d fair runs found", checks, found)
	if got != goldenFairRunsDigest {
		t.Fatalf("fair-run digest = %s, want %s", got, goldenFairRunsDigest)
	}
}
