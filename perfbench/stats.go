package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: op_tail_ms is the highest percentile with at least this
// many samples beyond it, so a tail read from few samples never passes
// for a p99.
const tailBeyond = 10

// minTailSamples is the fewest samples for which a tail is defined.
const minTailSamples = tailBeyond + 1

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf returns the smallest of xs, or 0 for no samples.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// tailStat is a tail latency with the evidence behind it.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"` // share of samples at or below Value, in percent
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"` // samples strictly above the percentile rank
}

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it. With fewer than minTailSamples samples no such
// percentile exists; the maximum is returned with Beyond = 0 so callers
// can refuse it.
func tail(xs []float64) tailStat {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tailStat{}
	}
	if n < minTailSamples {
		return tailStat{Value: s[n-1], Percentile: 100, Samples: n}
	}
	idx := n - minTailSamples
	return tailStat{
		Value:      s[idx],
		Percentile: 100 * float64(idx+1) / float64(n),
		Samples:    n,
		Beyond:     n - 1 - idx,
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// entered reads 0 rather than NaN).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
