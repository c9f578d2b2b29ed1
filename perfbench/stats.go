package main

import (
	"sort"

	"github.com/bingo-rw/bingo/internal/obs"
)

// percentiles returns the requested percentiles (each in [0, 100]) of xs,
// interpolating linearly between the two closest ranks: rank p/100·(n−1)
// of the sorted samples, counted from 0. It sorts xs in place and returns
// zeros for an empty sample.
func percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, p := range ps {
		rank := p / 100 * float64(len(xs)-1)
		lo := int(rank)
		if lo >= len(xs)-1 {
			out[i] = xs[len(xs)-1]
			continue
		}
		frac := rank - float64(lo)
		out[i] = xs[lo] + frac*(xs[lo+1]-xs[lo])
	}
	return out
}

// mean is the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentiles(xs, 50)[0] }

// histQuantile estimates the q-quantile (0 < q ≤ 1), in nanoseconds, of a
// log-bucketed obs histogram given as raw bucket counts, with the same
// in-bucket interpolation obs.Histogram.Quantile uses. It returns 0 when
// the buckets are empty.
func histQuantile(buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = obs.BucketUpper(i - 1)
			}
			hi := obs.BucketUpper(i)
			return float64(lo) + float64(rank-cum)/float64(c)*float64(hi-lo)
		}
		cum += c
	}
	return float64(obs.BucketUpper(len(buckets) - 1))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
