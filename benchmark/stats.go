package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, the "inclusive" method: q=0 is the minimum,
// q=1 the maximum. It returns 0 for an empty slice and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midmean is the interquartile mean: the mean of the middle half of the
// sorted sample, the outer quarters trimmed (with fractional weights at the
// edges when the count is not a multiple of four). It ignores a quarter of
// outliers on each side as the median does, but where slices fall into two
// groups — a primitive that spent some slices in one protocol and some in
// another — it moves smoothly with the groups' shares, where the median
// jumps from one group to the other.
func midmean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := float64(n)/4, 3*float64(n)/4
	sum := 0.0
	for i, x := range s {
		// Weight of sample i: the length of [i, i+1) inside [lo, hi).
		w := math.Min(float64(i+1), hi) - math.Max(float64(i), lo)
		if w > 0 {
			sum += w * x
		}
	}
	return sum / (hi - lo)
}

// summary is one quantity measured over interleaved slices: the median and
// quartiles (the benchmark's own spread) and the midmean, which is the
// value reported.
type summary struct {
	Mid    float64 `json:"midmean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Mid: midmean(xs), Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// scaled returns the summary of the same sample with every value
// multiplied by f > 0.
func (s summary) scaled(f float64) summary {
	return summary{Mid: s.Mid * f, Median: s.Median * f, Q1: s.Q1 * f, Q3: s.Q3 * f, N: s.N}
}

// iqrPct is the interquartile range as a percentage of the median.
func (s summary) iqrPct() float64 {
	if s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// geomean returns the geometric mean of the positive values in xs,
// skipping the rest (a zero cell has no ratio), and how many it used.
func geomean(xs []float64) (float64, int) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(n)), n
}
