package plot

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("width = %d, want 8", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("scaling wrong: %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty input must render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Error("zero width must render empty")
	}
}

func TestSparklineDownsamples(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Sparkline(vals, 20)
	if utf8.RuneCountInString(s) != 20 {
		t.Fatalf("width = %d, want 20", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("monotone ramp rendered non-monotonically: %q", s)
		}
	}
}

func TestSparklineWidthClamp(t *testing.T) {
	s := Sparkline([]float64{1, 2}, 50)
	if utf8.RuneCountInString(s) != 2 {
		t.Errorf("width should clamp to len(vals): %q", s)
	}
}

func TestSparklineAllZero(t *testing.T) {
	s := Sparkline([]float64{0, 0, 0}, 3)
	if s != "▁▁▁" {
		t.Errorf("all-zero series = %q", s)
	}
}

func TestSparklineSingleValue(t *testing.T) {
	s := Sparkline([]float64{3.5}, 10)
	if utf8.RuneCountInString(s) != 1 {
		t.Fatalf("single-value width = %d, want 1", utf8.RuneCountInString(s))
	}
}

func TestSparklineNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][]float64{
		{nan, nan, nan},
		{inf, inf},
		{math.Inf(-1), 0, 1},
		{1, nan, 3, inf, 5},
		{nan},
	}
	for _, vals := range cases {
		s := Sparkline(vals, 8) // must not panic
		if utf8.RuneCountInString(s) == 0 {
			t.Errorf("Sparkline(%v) rendered empty", vals)
		}
		for _, r := range s {
			if !strings.ContainsRune(string(sparks), r) {
				t.Errorf("Sparkline(%v) produced non-spark rune %q", vals, r)
			}
		}
	}
}

func TestSeriesNonFinite(t *testing.T) {
	s := Series("t", []float64{math.NaN(), 1, math.Inf(1)}, 10) // must not panic
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("Series leaked non-finite stats: %q", s)
	}
	if s := Series("one", []float64{42}, 10); !strings.Contains(s, "min 42") ||
		!strings.Contains(s, "max 42") {
		t.Errorf("single-value Series = %q", s)
	}
}

func TestSeries(t *testing.T) {
	s := Series("trace", []float64{1, 2, 3}, 3)
	for _, want := range []string{"trace", "min 1", "mean 2.0", "max 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Series missing %q: %q", want, s)
		}
	}
	if !strings.Contains(Series("x", nil, 3), "empty") {
		t.Error("empty series must say so")
	}
}
