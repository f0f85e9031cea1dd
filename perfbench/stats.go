package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule, or 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile: the sample count a tail percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when the base is empty; callers print the base
// next to the ratio so a 0 with base 0 reads as "not on this path".
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meanUs returns the mean of nanosecond samples in microseconds.
func meanUs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns)) / 1e3
}

// groupedPercentile orders ops by start time, cuts them into at most
// maxGroups consecutive groups of at least minGroup ops (one group when
// there are fewer ops), and returns the median of the groups'
// q-quantiles in ns, with the number of groups.
func groupedPercentile(start, lat []int64, q float64, minGroup, maxGroups int) (float64, int) {
	n := len(lat)
	if n == 0 {
		return 0, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(start[a], start[b]) })
	groups := max(1, min(maxGroups, n/minGroup))
	size := n / groups
	var qs []float64
	for g := 0; g < groups; g++ {
		end := (g + 1) * size
		if g == groups-1 {
			end = n
		}
		var part []int64
		for _, i := range order[g*size : end] {
			part = append(part, lat[i])
		}
		slices.Sort(part)
		qs = append(qs, float64(percentile(part, q)))
	}
	return median(qs), groups
}
