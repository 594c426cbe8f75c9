// Package waitanalysis implements the closed-form expected-cost analysis of
// two-phase waiting algorithms from Sections 4.4-4.5: expected waiting
// costs under exponentially and uniformly distributed waiting times against
// a restricted adversary, the resulting expected competitive factors
// (Figures 4.4 and 4.5), and the derivation of the optimal static Lpoll.
//
// All costs are expressed in units of B, the fixed cost of the signaling
// mechanism. α denotes Lpoll/B. β is the polling-efficiency factor
// (1 for spinning; ≈ number of hardware contexts for switch-spinning), so
// polling for wall time t costs t/β and a budget of αB runs out at wall
// time αβB.
//
// The analysis is written once over a Distribution, which supplies two
// integrals of its density f: the partial polling expectation
// ∫₀ˣ (t/β) f(t) dt and the tail P[t ≥ x]. A wait that polls up to wall
// time x and then pays (1+debt)·B costs partial(x) + (1+debt)·tail(x) in
// expectation; two-phase waiting is x = αβ, debt = α, and the off-line
// optimum, which polls iff t < βB and so never pays for polling it then
// abandons, is x = β, debt = 0. Always-poll (α = ∞) and always-signal
// (α = 0) are the corners. The factor, its supremum over the adversary's
// parameter and the α minimizing that follow for any Distribution.
//
// Headline results reproduced here:
//   - exponential waiting times: α* = ln(e−1) ≈ 0.5413 gives a worst-case
//     expected competitive factor of e/(e−1) ≈ 1.5820;
//   - uniform waiting times: α* ≈ 0.62 gives ≈ 1.62.
package waitanalysis

import "math"

// AlphaExpOptimal is ln(e-1), the optimal polling limit (in units of B)
// under exponentially distributed waiting times (Section 4.5.1).
var AlphaExpOptimal = math.Log(math.E - 1)

// FactorExpOptimal is e/(e-1), the optimal on-line competitive factor.
var FactorExpOptimal = math.E / (math.E - 1)

// Distribution is a one-parameter family of waiting-time densities; the
// restricted adversary picks the parameter p.
type Distribution struct {
	// partial returns ∫₀ˣ (t/β) f(t) dt, x = +Inf included.
	partial func(p, x, beta float64) float64
	// tail returns P[t ≥ x].
	tail func(p, x float64) float64
}

// Exponential is f(t) = λe^{-λt}; its parameter is the rate λ in units of
// 1/B.
var Exponential = Distribution{
	partial: func(lambda, x, beta float64) float64 {
		if math.IsInf(x, 1) {
			return 1 / (lambda * beta) // E[t]/β
		}
		e := math.Exp(-lambda * x)
		return (1/lambda - e*(x+1/lambda)) / beta
	},
	tail: func(lambda, x float64) float64 { return math.Exp(-lambda * x) },
}

// Uniform is f(t) = 1/τ on [0, τB]; its parameter is the span τ.
var Uniform = Distribution{
	partial: func(tau, x, beta float64) float64 {
		if x >= tau {
			return tau / (2 * beta) // the whole support: E[t]/β
		}
		return x * x / (2 * beta * tau)
	},
	tail: func(tau, x float64) float64 {
		if x >= tau {
			return 0
		}
		return 1 - x/tau
	},
}

// cost returns the expected cost of polling up to wall time x and then
// signaling at (1+debt)·B.
func (d Distribution) cost(p, x, debt, beta float64) float64 {
	return d.partial(p, x, beta) + (1+debt)*d.tail(p, x)
}

// TwoPhaseCost returns E[C_2phase/α] in units of B:
//
//	E = ∫₀^{αβB} (t/β) f(t) dt + (1+α)B ∫_{αβB}^∞ f(t) dt
func (d Distribution) TwoPhaseCost(alpha, p, beta float64) float64 {
	if math.IsInf(alpha, 1) {
		return d.partial(p, alpha, beta) // always-poll never signals
	}
	if alpha <= 0 {
		return 1 // always-signal: B
	}
	return d.cost(p, alpha*beta, alpha, beta)
}

// OptCost returns E[C_opt] in units of B: the off-line algorithm polls iff
// t < βB, so E = ∫₀^{βB} (t/β) f dt + B·P[t ≥ βB].
func (d Distribution) OptCost(p, beta float64) float64 {
	return d.cost(p, beta, 0, beta)
}

// Factor returns the expected competitive factor E[C_2phase/α]/E[C_opt] at
// the adversary's parameter p.
func (d Distribution) Factor(alpha, p, beta float64) float64 {
	return d.TwoPhaseCost(alpha, p, beta) / d.OptCost(p, beta)
}

// WorstFactor returns sup over p of Factor — the competitive factor against
// a restricted adversary that controls the distribution's parameter.
func (d Distribution) WorstFactor(alpha, beta float64) float64 {
	return supOverRate(func(p float64) float64 { return d.Factor(alpha, p, beta) })
}

// OptimalAlpha numerically finds the α minimizing WorstFactor: ln(e−1) for
// Exponential (Section 4.5.1 proves it for β = 1), ≈ 0.62 giving ≈ 1.62
// for Uniform (Section 4.5.2).
func (d Distribution) OptimalAlpha(beta float64) float64 {
	return argminAlpha(func(a float64) float64 { return d.WorstFactor(a, beta) })
}

// --- numeric helpers ---

// supOverRate evaluates f over a wide logarithmic grid of the adversary's
// parameter (rate λ or span τ) and refines around the max.
func supOverRate(f func(x float64) float64) float64 {
	best, bestX := 0.0, 0.0
	for i := -300; i <= 300; i++ {
		x := math.Pow(10, float64(i)/50) // 1e-6 .. 1e6
		if v := f(x); v > best {
			best, bestX = v, x
		}
	}
	// Golden-section refine around bestX (one decade each side).
	lo, hi := bestX/10, bestX*10
	for k := 0; k < 80; k++ {
		m1 := lo + (hi-lo)*0.382
		m2 := lo + (hi-lo)*0.618
		if f(m1) > f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	if v := f((lo + hi) / 2); v > best {
		best = v
	}
	return best
}

// argminAlpha minimizes g over α ∈ (0, 3] by golden-section search.
func argminAlpha(g func(a float64) float64) float64 {
	lo, hi := 0.01, 3.0
	for k := 0; k < 100; k++ {
		m1 := lo + (hi-lo)*0.382
		m2 := lo + (hi-lo)*0.618
		if g(m1) < g(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}
