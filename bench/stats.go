package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the q-th percentile (0–100) by linear interpolation
// between order statistics; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the tail percentiles a timing may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, and returns it with its value. With
// fewer than 40 samples no tail qualifies and it falls back to the median.
func tailPercentile(xs []float64) (q, v float64) {
	for _, q := range tailLadder {
		if float64(len(xs))*(100-q) >= 1000-1e-6 { // ≥ 10 samples beyond; 100−99.9 is not exact
			return q, percentile(xs, q)
		}
	}
	return 50, median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// interval is a half-open wall-clock range in seconds since an arbitrary
// origin.
type interval struct{ lo, hi float64 }

// unionLen returns the total length covered by the intervals, counting
// overlapped stretches once — parallel component solves overlap, so a
// sum would exceed the wall clock they occupied.
func unionLen(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	total := 0.0
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// clip restricts the intervals to [lo, hi], dropping empty results.
func clip(ivs []interval, lo, hi float64) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			out = append(out, iv)
		}
	}
	return out
}
