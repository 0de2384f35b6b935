package mc

import "math"

// The binomial confidence interval for the sampled satisfaction
// probability is the Clopper–Pearson "exact" interval: conservative,
// its coverage is at least the nominal level for every true p, which
// is the guarantee the differential battery asserts against exact
// verdicts. The tests check that it contains the tighter Wilson score
// interval.

// ClopperPearson returns the Clopper–Pearson exact interval for hits
// successes out of n trials at the given two-sided confidence level.
// The bounds are quantiles of Beta distributions:
//
//	lo = BetaInv(α/2;   hits,   n-hits+1)   (0 when hits == 0)
//	hi = BetaInv(1-α/2; hits+1, n-hits)     (1 when hits == n)
//
// In the all-hits regime the lower bound is (α/2)^(1/n), strictly
// increasing in n — the honest form of "more samples ⇒ tighter CI"
// that the metamorphic budget-monotonicity law asserts.
func ClopperPearson(hits, n int, confidence float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	alpha := 1 - confidence
	if hits <= 0 {
		lo = 0
	} else {
		lo = betaInv(alpha/2, float64(hits), float64(n-hits+1))
	}
	if hits >= n {
		hi = 1
	} else {
		hi = betaInv(1-alpha/2, float64(hits+1), float64(n-hits))
	}
	return clamp01(lo), clamp01(hi)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// betaInv returns x with I_x(a, b) = p (the inverse regularized
// incomplete beta function) by bisection: regIncBeta is monotone
// increasing in x, and 60 halvings put the error below 1e-15.
func betaInv(p, a, b float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if regIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) via the standard continued-fraction expansion, using the
// symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the fraction in its
// fast-converging region.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - math.Exp(lbeta-la-lb+a*math.Log(x)+b*math.Log(1-x))*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
