package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupLine reports every set-up repetition of a run, in ms.
func setupLine(setups []float64) string {
	var sb strings.Builder
	sb.WriteString("# setup_ms")
	for _, x := range setups {
		fmt.Fprintf(&sb, " %.3f", x*1e3)
	}
	return sb.String()
}

// overheadPct is the traced value's change over the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// quantile returns a quantile of a microsecond histogram divided by div
// (1e3 for ms, 1 for µs).
func quantile(h *stats.LogHistogram, at, div float64) float64 {
	return float64(h.Quantile(at)) / div
}

// fractionAbove estimates the share of h's samples strictly above limit,
// to the histogram's bucket resolution, by bisecting on the quantile.
func fractionAbove(h *stats.LogHistogram, limit int64) float64 {
	if h.Count() == 0 || h.Max() <= limit {
		return 0
	}
	if h.Min() > limit {
		return 1
	}
	lo, hi := 0.0, 1.0 // Quantile(lo) <= limit < Quantile(hi)
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if h.Quantile(mid) <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 1 - lo
}
