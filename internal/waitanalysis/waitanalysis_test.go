package waitanalysis

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestExpOptimalAlphaIsLnEMinus1(t *testing.T) {
	// Section 4.5.1: the optimal static polling limit under exponential
	// waiting times is ln(e-1) ≈ 0.5413.
	got := Exponential.OptimalAlpha(1)
	if !close(got, AlphaExpOptimal, 0.02) {
		t.Fatalf("optimal alpha = %f, want ln(e-1) = %f", got, AlphaExpOptimal)
	}
}

func TestExpOptimalFactorIs158(t *testing.T) {
	// The resulting worst-case expected competitive factor is e/(e-1).
	got := Exponential.WorstFactor(AlphaExpOptimal, 1)
	if !close(got, FactorExpOptimal, 0.02) {
		t.Fatalf("worst factor at alpha* = %f, want %f", got, FactorExpOptimal)
	}
}

func TestExpAlphaOneIsWorse(t *testing.T) {
	// The classic Lpoll = B choice is 2-competitive in the worst case but
	// its *expected* factor against the restricted adversary must be
	// strictly worse than the optimal 1.58 and at most 2.
	f1 := Exponential.WorstFactor(1, 1)
	fOpt := Exponential.WorstFactor(AlphaExpOptimal, 1)
	if f1 <= fOpt {
		t.Fatalf("alpha=1 factor %f should exceed optimal %f", f1, fOpt)
	}
	if f1 > 2.0+1e-9 {
		t.Fatalf("alpha=1 factor %f exceeds the 2-competitive bound", f1)
	}
}

func TestUniformOptimalNearPoint62(t *testing.T) {
	// Section 4.5.2: α* ≈ 0.62 with factor ≈ 1.62.
	a := Uniform.OptimalAlpha(1)
	if !close(a, 0.62, 0.04) {
		t.Fatalf("uniform optimal alpha = %f, want ≈0.62", a)
	}
	f := Uniform.WorstFactor(a, 1)
	if !close(f, 1.62, 0.04) {
		t.Fatalf("uniform optimal factor = %f, want ≈1.62", f)
	}
}

func TestAlwaysPollUnboundedFactor(t *testing.T) {
	// Always-spin has unbounded expected factor as waiting times grow.
	if Exponential.Factor(math.Inf(1), 0.001, 1) < 10 {
		t.Fatal("always-poll should be terrible for long waits")
	}
	// Always-signal approaches factor B/E[C_opt] -> large for short waits.
	if Exponential.Factor(0, 100, 1) < 10 {
		t.Fatal("always-signal should be terrible for short waits")
	}
}

func TestTwoPhaseNeverBelowOne(t *testing.T) {
	f := func(ai, li uint16) bool {
		alpha := 0.01 + float64(ai%300)/100 // 0.01..3
		lambda := math.Pow(10, float64(li%120)/20-3)
		return Exponential.Factor(alpha, lambda, 1) >= 1-1e-9 &&
			Uniform.Factor(alpha, lambda, 1) >= 1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostsDecreaseWithBeta(t *testing.T) {
	// Switch-spinning (β>1) polls more cheaply, so expected costs drop.
	for _, lambda := range []float64{0.1, 1, 10} {
		c1 := Exponential.TwoPhaseCost(1, lambda, 1)
		c4 := Exponential.TwoPhaseCost(1, lambda, 4)
		if c4 > c1+1e-12 {
			t.Fatalf("beta=4 cost %f exceeds beta=1 cost %f at lambda=%f", c4, c1, lambda)
		}
	}
}

func TestExpCostLimits(t *testing.T) {
	// As λ→∞ (instant satisfaction), all costs → 0 except pure signaling.
	if Exponential.TwoPhaseCost(0.5, 1e6, 1) > 0.01 {
		t.Fatal("cost should vanish for instant conditions")
	}
	if !close(Exponential.TwoPhaseCost(0, 1e6, 1), 1, 1e-9) {
		t.Fatal("always-signal cost must be exactly B")
	}
	// As λ→0 (infinite waits), two-phase cost → (1+α)B.
	if !close(Exponential.TwoPhaseCost(0.5, 1e-9, 1), 1.5, 1e-3) {
		t.Fatal("two-phase cost should approach (1+α)B for long waits")
	}
}

func TestUniformCostPiecewise(t *testing.T) {
	// When the polling window covers the whole support (αβ ≥ τ) the
	// algorithm never blocks: cost = mean wait / β.
	if !close(Uniform.TwoPhaseCost(2, 1.5, 1), 0.75, 1e-9) {
		t.Fatal("full-coverage uniform cost should be τ/2")
	}
	// Opt behaves the same at the βB boundary.
	if !close(Uniform.OptCost(0.5, 1), 0.25, 1e-9) {
		t.Fatal("opt with τ<β should be τ/2")
	}
}

func TestFigure44Shape(t *testing.T) {
	// Figure 4.4's qualitative content: near λB≈1 the 0.54B curve beats
	// the 1.0B curve; both stay below always-spin and always-block curves
	// in their respective bad regions.
	for _, lb := range []float64{0.3, 1, 3} {
		fOpt := Exponential.Factor(AlphaExpOptimal, lb, 1)
		if fOpt > FactorExpOptimal+0.01 {
			t.Fatalf("0.54B factor %f exceeds 1.58 bound at λB=%f", fOpt, lb)
		}
	}
}

func TestSwitchSpinBetaInvariance(t *testing.T) {
	// Switch-spinning (β>1) polls more cheaply, which lowers *expected
	// costs* at any fixed rate (TestCostsDecreaseWithBeta) — but against a
	// restricted adversary that controls the rate, β only reparameterizes
	// the adversary (substituting μ = λβ maps the β≠1 system onto β=1), so
	// the worst-case competitive factor is invariant: still e/(e−1) at the
	// same optimal α.
	f1 := Exponential.WorstFactor(Exponential.OptimalAlpha(1), 1)
	f4 := Exponential.WorstFactor(Exponential.OptimalAlpha(4), 4)
	if math.Abs(f4-f1) > 0.01 {
		t.Fatalf("worst-case factor should be beta-invariant: beta=1 %f, beta=4 %f", f1, f4)
	}
	a4 := Exponential.OptimalAlpha(4)
	if math.Abs(a4-AlphaExpOptimal) > 0.02 {
		t.Fatalf("optimal alpha should be beta-invariant: %f vs %f", a4, AlphaExpOptimal)
	}
	u1 := Uniform.WorstFactor(Uniform.OptimalAlpha(1), 1)
	u4 := Uniform.WorstFactor(Uniform.OptimalAlpha(4), 4)
	if math.Abs(u4-u1) > 0.01 {
		t.Fatalf("uniform worst factor should be beta-invariant: %f vs %f", u1, u4)
	}
}

func TestOptIsTwoPhaseWithWindowBetaAndNoDebt(t *testing.T) {
	// The identity the one cost formula rests on: the off-line optimum is
	// the two-phase form with the polling window at βB and nothing owed for
	// the polling it abandons, bit for bit ((1+0)·tail is exact).
	for _, d := range []Distribution{Exponential, Uniform} {
		for _, p := range []float64{0.01, 0.3, 1, 3, 64} {
			for _, beta := range []float64{1, 4} {
				want := d.partial(p, beta, beta) + d.tail(p, beta)
				if got := d.OptCost(p, beta); got != want {
					t.Errorf("OptCost(%g, %g) = %v, want partial+tail = %v", p, beta, got, want)
				}
				// ...which is what an on-line α = 1 pays less its debt.
				if got := d.TwoPhaseCost(1, p, beta) - d.tail(p, beta); !close(got, want, 1e-12) {
					t.Errorf("TwoPhaseCost(1, %g, %g) less its debt = %v, want %v", p, beta, got, want)
				}
			}
		}
	}
}
