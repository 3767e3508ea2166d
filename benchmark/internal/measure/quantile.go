package measure

import "sort"

// Sample summarises repeated measurements of one quantity.
type Sample struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize returns the median and quartiles of vals, the quartiles by
// the rule Python's statistics.quantiles(vals, n=4) uses (exclusive
// method), so a spread computed here equals one computed by the driver.
// With a single value all three are that value.
func Summarize(vals []float64) Sample {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return Sample{}
	}
	if n == 1 {
		return Sample{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return Sample{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}
