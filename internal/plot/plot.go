// Package plot renders terminal sparklines, used by the CLI tools to
// show Fig. 14 style per-cycle traces without leaving the terminal.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// finite sanitizes one sample: NaN and ±Inf render as the baseline (0)
// rather than producing an out-of-range glyph index or a poisoned scale.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// sparks are the eight vertical-resolution levels of a sparkline.
var sparks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a width-character sparkline, bucketing by
// mean within each bucket and scaling to the series maximum.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width < 1 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	buckets := bucketMeans(vals, width)
	max := 0.0
	for _, b := range buckets {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	for _, b := range buckets {
		idx := 0
		if max > 0 {
			idx = int(b / max * float64(len(sparks)-1))
		}
		if idx >= len(sparks) {
			idx = len(sparks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		sb.WriteRune(sparks[idx])
	}
	return sb.String()
}

// bucketMeans downsamples vals into n equal-width buckets by mean.
func bucketMeans(vals []float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(vals) / n
		hi := (i + 1) * len(vals) / n
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for _, v := range vals[lo:hi] {
			s += finite(v)
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// Series renders a labeled sparkline with its min/mean/max.
func Series(label string, vals []float64, width int) string {
	if len(vals) == 0 {
		return fmt.Sprintf("%-24s (empty)", label)
	}
	min, max, sum := finite(vals[0]), finite(vals[0]), 0.0
	for _, v := range vals {
		v = finite(v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return fmt.Sprintf("%-24s %s  min %.0f  mean %.1f  max %.0f",
		label, Sparkline(vals, width), min, sum/float64(len(vals)), max)
}
