package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of v by nearest rank: the
// smallest value with at least q of the samples at or below it. v must be
// sorted ascending and non-empty.
func quantile(v []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sorted(v), 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies converts a phase's per-query latencies to microseconds,
// counting every failed query (lost, late or wrong) at the timeout: a
// failure misses any latency limit.
func latencies(lat []int64, failed []bool) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		if d < 0 || failed[i] {
			d = int64(timeout)
		}
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// window is the slice of a phase its latency percentiles and the knee's
// pass test are taken over.
const window = 200 * time.Millisecond

// windowStats summarises one window of a phase.
type windowStats struct {
	sent, failed int
	p50, p99     float64 // µs, failures counted at the timeout
}

// windows splits a phase (queries in due order) into consecutive windows
// of the given length by due time and summarises each.
func windows(due, lat []int64, failed []bool) []windowStats {
	var out []windowStats
	for lo := 0; lo < len(due); {
		end := (due[lo]/int64(window) + 1) * int64(window)
		hi := lo
		for hi < len(due) && due[hi] < end {
			hi++
		}
		l := latencies(lat[lo:hi], failed[lo:hi])
		w := windowStats{sent: hi - lo, p50: quantile(l, 0.5), p99: quantile(l, 0.99)}
		for _, f := range failed[lo:hi] {
			if f {
				w.failed++
			}
		}
		out = append(out, w)
		lo = hi
	}
	return out
}
