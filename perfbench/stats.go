package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for
// it to be reported: a p90 needs at least 100 samples, a p99 1000.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 1)
// in n sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailAllowed reports whether percentile p of n samples has at least
// minBeyond samples above it. The median is always allowed.
func tailAllowed(p float64, n int) bool {
	if n == 0 {
		return false
	}
	return p <= 0.5 || n-rank(p, n) >= minBeyond
}

// highestTail is the highest of the usual tail percentiles that n
// samples support, or 0.5 when none does.
func highestTail(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.75} {
		if tailAllowed(p, n) {
			return p
		}
	}
	return 0.5
}

// percentile is the nearest-rank percentile of xs. It refuses a tail
// percentile that too few samples support.
func percentile(xs []float64, p float64) (float64, error) {
	if !tailAllowed(p, len(xs)) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; only %d samples", p*100, minBeyond, len(xs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(p, len(sorted))-1], nil
}

// median is percentile(xs, 0.5), or 0 for no samples: a layer a
// workload never calls reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts attempted and failed operations, keeping the first few
// failure reasons for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

const keptReasons = 8

// record counts one operation; a non-empty reason marks it failed.
func (t *tally) record(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if len(t.reasons) < keptReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// failRatio is failed over attempted (0 when nothing was attempted).
func (t tally) failRatio() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}
