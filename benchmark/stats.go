package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a
// spread computed here agrees with the one the driver computes. Fewer
// than two samples yield that sample (or zero) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// relIQR is the distance between the first and third quartile as a share
// of the median: the spread the driver holds against a metric's bound.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// histQuantile estimates the q-quantile of a bucketed histogram by linear
// interpolation inside the bucket where the cumulative count crosses q·N.
// bounds are the bucket upper bounds; counts has one more entry, the
// overflow bucket, which reports the last finite bound. The first bucket
// starts at zero.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(n)
	cum := 0.0
	for i, c := range counts {
		next := cum + float64(c)
		if c > 0 && next >= target {
			if i >= len(bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}
