package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile for
// it to be reported: a p99 from fewer than ten tail samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted and
// whether it is reportable, i.e. at least minBeyond samples lie above its
// rank. sorted must be in ascending order.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// dist is a sample set in milliseconds (or any unit) with its percentile
// summary.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v); d.sorted = false }

func (d *dist) n() int { return len(d.vals) }

// pct returns the q-quantile and whether it is reportable.
func (d *dist) pct(q float64) (float64, bool) {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return percentile(d.vals, q)
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count), used for repeated set-up timings.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of ivs clipped to within.
// Overlapping children (parallel shard calls) are counted once.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfTime is a span's own time: its duration minus the part of it that
// its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}
