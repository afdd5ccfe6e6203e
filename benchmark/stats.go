package main

import (
	"fmt"
	"math"
	"sort"
)

// minFloorSamples is the smallest sample count the floor estimator
// accepts in a full run.
const minFloorSamples = 100

// floorSamples is how many of the fastest samples the floor averages,
// unless a hundredth of the samples is more.
const floorSamples = 10

// floorMean is the quiet-host floor estimator: the mean of the ten
// fastest samples of xs, or of the fastest hundredth when xs has more
// than a thousand. On a host whose neighbours steal cycles the slow
// side of a timing distribution is noise, while the fast side is
// bounded below by the work itself; and the noise comes and goes at the
// millisecond scale even in a bad minute, so the more and the shorter
// the samples, the surer a few of them ran undisturbed (README, "Why
// floors"). It refuses fewer than minSamples samples.
func floorMean(xs []float64, minSamples int) (float64, error) {
	if len(xs) < minSamples || len(xs) == 0 {
		return 0, fmt.Errorf("floor estimator needs >= %d samples, have %d", minSamples, len(xs))
	}
	s := sortedCopy(xs)
	n := max(floorSamples, len(s)/100)
	return mean(s[:min(n, len(s))]), nil
}

// weightedGeoMean returns exp(Σ w_i·ln x_i / Σ w_i). A time-weighted
// mean of per-kind floors would hide the cheap kinds (a 1 ms cache hit
// next to a 130 ms cold run); the geometric mean moves by the same
// factor whichever kind gets 10 % faster.
func weightedGeoMean(xs, ws []float64) (float64, error) {
	if len(xs) != len(ws) || len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of %d values with %d weights", len(xs), len(ws))
	}
	var sum, wsum float64
	for i, x := range xs {
		if x <= 0 || ws[i] < 0 {
			return 0, fmt.Errorf("geometric mean needs positive values and non-negative weights, have x=%g w=%g", x, ws[i])
		}
		sum += ws[i] * math.Log(x)
		wsum += ws[i]
	}
	if wsum == 0 {
		return 0, fmt.Errorf("geometric mean with zero total weight")
	}
	return math.Exp(sum / wsum), nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover (overlapping children are
// merged first, and clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNS < ch[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range ch {
			lo, hi := k.StartNS, k.EndNS
			if lo < end {
				lo = end
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// regressed reports whether candidate is worse than base by more than
// the metric's bound. The bound is a share of the base value; a zero
// base (only the failure count can be zero) makes the rule absolute:
// any worsening at all regresses.
func regressed(m metricSpec, base, cand float64) bool {
	worse := cand - base
	if m.Better == "higher" {
		worse = base - cand
	}
	if base == 0 {
		return worse > 0
	}
	return worse > m.Bound*math.Abs(base)
}

// relDiff is (cand-base)/|base|, or 0 when both are 0 and ±Inf when
// only the base is.
func relDiff(base, cand float64) float64 {
	if base == cand {
		return 0
	}
	if base == 0 {
		return math.Inf(int(math.Copysign(1, cand)))
	}
	return (cand - base) / math.Abs(base)
}

// iqrShare is the driver's steadiness figure: the distance between the
// first and third quartile as a share of the median (exclusive
// quantile method, as Python's statistics.quantiles(n=4)).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
