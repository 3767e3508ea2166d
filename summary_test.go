package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

// TestSummaryAgreesWithAccessors: stats.Summarize is the one place a run's
// derived values are assembled, and the pinned benchmark reads the same run
// through six accessors. On every Table III cell ({gto, rba} at 2 SMs) the
// two must say the same thing, the summary's CPI stack and stall table must
// each account for every sub-core cycle, and the two renderings must print
// what the summary holds.
func TestSummaryAgreesWithAccessors(t *testing.T) {
	apps, err := SensitiveWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		apps = apps[:5]
	}
	cfgs := []Config{VoltaV100().WithSMs(2), VoltaV100().WithSMs(2).WithScheduler(SchedRBA)}
	res, err := harness.Run(context.Background(), cfgs, []string{"gto", "rba"}, apps, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range apps {
		for j, r := range res.Runs[i] {
			s := stats.Summarize(r)
			if s.Cycles != r.Cycles || s.Instructions != r.Instructions || s.IPC != r.IPC() || s.IssueCoV != r.IssueCoV() ||
				s.BankConflicts != r.TotalBankConflicts() || s.RegReads != r.TotalRegReads() || s.MeanOccupancy != r.MeanOccupancy() {
				t.Errorf("%s/%d: summary %+v disagrees with the run's accessors", app.Name, j, s)
			}
			st := r.CPIStack()
			shares := st.Shares()
			subCoreCycles := r.Cycles * int64(len(r.SMs)*len(r.SMs[0].SubCores))
			var cpi, stalls int64
			for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
				e, ok := s.CPI[c.String()]
				if !ok || e.Cycles != st[c] || e.Share != shares[c] {
					t.Errorf("%s/%d: cpi[%s] = %+v (present %v), the run's stack has %d cycles, share %v", app.Name, j, c, e, ok, st[c], shares[c])
				}
				cpi += e.Cycles
			}
			for reason := stats.StallReason(1); reason < stats.NumStallReasons; reason++ {
				stalls += s.Stalls[reason.String()]
			}
			if len(s.CPI) != int(stats.NumCPIComponents) || len(s.Stalls) != int(stats.NumStallReasons)-1 ||
				cpi != subCoreCycles || stalls+s.CPI["issue"].Cycles != subCoreCycles {
				t.Errorf("%s/%d: %d CPI cycles, %d stall + %d issue cycles; want %d sub-core cycles both ways",
					app.Name, j, cpi, stalls, s.CPI["issue"].Cycles, subCoreCycles)
			}
			var hits int64
			for k := range r.SMs {
				hits += r.SMs[k].L1Hits
			}
			if s.L1Accesses > 0 && s.L1HitRate != float64(hits)/float64(s.L1Accesses) {
				t.Errorf("%s/%d: L1 hit rate %v over %d accesses, the SMs count %d hits", app.Name, j, s.L1HitRate, s.L1Accesses, hits)
			}
			var text bytes.Buffer
			s.WriteText(&text)
			if strings.Contains(text.String(), "L1 hit rate") != (s.L1Accesses > 0) || strings.Count(text.String(), "\n") < 20 {
				t.Errorf("%s/%d: text report:\n%s", app.Name, j, text.String())
			}
			if got := strings.Count(s.CSVRow(), ","); got != strings.Count(stats.CSVHeader, ",") {
				t.Errorf("%s/%d: CSV row %q does not fit the header %q", app.Name, j, s.CSVRow(), stats.CSVHeader)
			}
		}
	}
}
