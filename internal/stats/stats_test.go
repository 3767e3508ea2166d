package stats

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almost(got, 2) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 0, -1}); !almost(got, 2) {
		t.Errorf("GeoMean skipping nonpositive = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestMeanAndPercentile(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	vals := []float64{9, 1, 5, 3, 7}
	if got := Percentile(vals, 0); !almost(got, 1) {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(vals, 100); !almost(got, 9) {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(vals, 50); !almost(got, 5) {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
	// Percentile must not mutate its input.
	if vals[0] != 9 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestRunAggregates(t *testing.T) {
	r := NewRun(2, 4)
	if len(r.SMs) != 2 || len(r.SMs[0].SubCores) != 4 {
		t.Fatal("NewRun mis-sized")
	}
	for i := range r.SMs {
		for j := range r.SMs[i].SubCores {
			r.SMs[i].SubCores[j].Issued = int64(100 * (j + 1))
			r.SMs[i].SubCores[j].BankConflicts = 3
			r.SMs[i].SubCores[j].RegReads = 7
			r.SMs[i].SubCores[j].StallCycles[StallNoCU] = 2
		}
	}
	r.Cycles = 1000
	r.Instructions = 2000
	if !almost(r.IPC(), 2) {
		t.Errorf("IPC = %v", r.IPC())
	}
	if got := r.TotalBankConflicts(); got != 24 {
		t.Errorf("TotalBankConflicts = %d, want 24", got)
	}
	if got := r.TotalRegReads(); got != 56 {
		t.Errorf("TotalRegReads = %d, want 56", got)
	}
	if got := Summarize(r).Stalls["no-cu"]; got != 16 {
		t.Errorf("summed no-cu stalls = %d, want 16", got)
	}
	// Per-SM issue {100,200,300,400}: mean 250, stddev sqrt(12500)
	wantCov := math.Sqrt(12500) / 250
	if got := r.IssueCoV(); !almost(got, wantCov) {
		t.Errorf("IssueCoV = %v, want %v", got, wantCov)
	}
}

func TestIssueCoVSkipsIdleSMs(t *testing.T) {
	r := NewRun(2, 2)
	r.SMs[0].SubCores[0].Issued = 10
	r.SMs[0].SubCores[1].Issued = 10
	// SM 1 issued nothing; must not drag CoV.
	if got := r.IssueCoV(); !almost(got, 0) {
		t.Errorf("IssueCoV = %v, want 0", got)
	}
	empty := NewRun(1, 2)
	if got := empty.IssueCoV(); got != 0 {
		t.Errorf("IssueCoV all-idle = %v", got)
	}
}

func TestZeroCycleIPC(t *testing.T) {
	var r Run
	if r.IPC() != 0 {
		t.Error("IPC of empty run must be 0")
	}
}

func TestStallReasonString(t *testing.T) {
	if StallNoCU.String() != "no-cu" || StallBarrier.String() != "barrier" {
		t.Error("stall names wrong")
	}
	// Every in-range reason must have a non-empty, distinct name — this
	// catches a new enum value added without a matching table entry.
	seen := make(map[string]StallReason, NumStallReasons)
	for r := StallReason(0); r < NumStallReasons; r++ {
		name := r.String()
		if name == "" {
			t.Errorf("StallReason(%d) has empty name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("StallReason(%d) and StallReason(%d) share name %q", prev, r, name)
		}
		seen[name] = r
	}
	// Out-of-range values must stringify via the numeric fallback, never
	// panic or return an in-table name.
	for _, r := range []StallReason{NumStallReasons, 99, 255} {
		got := r.String()
		want := "stall(" + strconv.Itoa(int(r)) + ")"
		if got != want {
			t.Errorf("StallReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// TestPercentileEdgeCases pins the contract on degenerate input: NaN
// values are dropped before ranking, NaN/negative p clamps to the
// minimum, p >= 100 to the maximum, and an empty (or all-NaN) sample
// yields 0.
func TestPercentileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"all-nan", []float64{nan, nan}, 50, 0},
		{"nan-dropped", []float64{nan, 3, nan, 1}, 100, 3},
		{"nan-dropped-min", []float64{nan, 3, 1}, 0, 1},
		{"negative-p", []float64{5, 1, 9}, -10, 1},
		{"nan-p", []float64{5, 1, 9}, nan, 1},
		{"over-100", []float64{5, 1, 9}, 150, 9},
		{"single", []float64{7}, 50, 7},
		{"inf-kept", []float64{1, math.Inf(1)}, 100, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.vals, tc.p); got != tc.want && !almost(got, tc.want) {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.vals, tc.p, got, tc.want)
			}
		})
	}
}

// TestGeoMeanNonFinite pins that NaN/±Inf are skipped like nonpositive
// values.
func TestGeoMeanNonFinite(t *testing.T) {
	got := GeoMean([]float64{2, math.NaN(), 8, math.Inf(1), -3})
	if !almost(got, 4) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean([]float64{math.NaN(), math.Inf(-1)}); got != 0 {
		t.Errorf("GeoMean all-non-finite = %v, want 0", got)
	}
}

// Property: IssueCoV is scale-invariant (k times every sub-core's issue
// count leaves it unchanged for k > 0).
func TestIssueCoVScaleInvariantProperty(t *testing.T) {
	f := func(a, b, c uint8, k uint8) bool {
		scale := int64(k%9) + 1
		r, scaled := NewRun(1, 3), NewRun(1, 3)
		for j, v := range []uint8{a, b, c} {
			r.SMs[0].SubCores[j].Issued = int64(v) + 1
			scaled.SMs[0].SubCores[j].Issued = (int64(v) + 1) * scale
		}
		return math.Abs(r.IssueCoV()-scaled.IssueCoV()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean lies between min and max of positive inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		g := GeoMean(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
