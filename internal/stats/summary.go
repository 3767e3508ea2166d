package stats

import (
	"fmt"
	"io"
)

// Summary is everything a report derives from a Run, computed in one place
// (Summarize) and printed three ways: as JSON in the run record
// (harness.Record — `subcoresim -json` and every checkpoint line), as the
// text report (WriteText) and as a CSV row (CSVRow). Two runs therefore
// print the same fields wherever they were written down.
type Summary struct {
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	// IssueCoV is Fig 17's per-sub-core issue imbalance.
	IssueCoV float64 `json:"issue_cov"`
	// BankConflicts is in request wait-cycles (SubCore.BankConflicts), so it
	// can exceed RegReads.
	BankConflicts int64   `json:"bank_conflicts"`
	RegReads      int64   `json:"reg_reads"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	L1Accesses    int64   `json:"l1_accesses"`
	L1HitRate     float64 `json:"l1_hit_rate"`
	// Stalls maps each stall reason's name to its summed sub-core cycles.
	Stalls map[string]int64 `json:"stalls"`
	// CPI maps each CPI-stack component's name to its cycles and its share
	// of all attributed cycles.
	CPI map[string]CPIShare `json:"cpi"`
}

// CPIShare is one component of a Summary's CPI stack.
type CPIShare struct {
	Cycles int64   `json:"cycles"`
	Share  float64 `json:"share"`
}

// Summarize derives r's Summary.
func Summarize(r *Run) Summary {
	s := Summary{
		Cycles:        r.Cycles,
		Instructions:  r.Instructions,
		IPC:           r.IPC(),
		IssueCoV:      r.IssueCoV(),
		BankConflicts: r.TotalBankConflicts(),
		RegReads:      r.TotalRegReads(),
		MeanOccupancy: r.MeanOccupancy(),
		Stalls:        make(map[string]int64, NumStallReasons-1),
		CPI:           make(map[string]CPIShare, NumCPIComponents),
	}
	var hits int64
	for i := range r.SMs {
		sm := &r.SMs[i]
		hits += sm.L1Hits
		s.L1Accesses += sm.L1Hits + sm.L1Misses
		for j := range sm.SubCores {
			for reason := StallReason(1); reason < NumStallReasons; reason++ {
				s.Stalls[reason.String()] += sm.SubCores[j].StallCycles[reason]
			}
		}
	}
	if s.L1Accesses > 0 {
		s.L1HitRate = float64(hits) / float64(s.L1Accesses)
	}
	st := r.CPIStack()
	for c, share := range st.Shares() {
		s.CPI[CPIComponent(c).String()] = CPIShare{Cycles: st[c], Share: share}
	}
	return s
}

// WriteText prints the summary as the text report's body.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cycles:         %d\n", s.Cycles)
	fmt.Fprintf(w, "instructions:   %d\n", s.Instructions)
	fmt.Fprintf(w, "IPC:            %.3f\n", s.IPC)
	fmt.Fprintf(w, "issue CoV:      %.3f (per-sub-core imbalance, Fig 17 metric)\n", s.IssueCoV)
	perRead := 0.0
	if s.RegReads > 0 {
		perRead = float64(s.BankConflicts) / float64(s.RegReads)
	}
	fmt.Fprintf(w, "bank conflicts: %d wait-cycles (%.3f per read)\n", s.BankConflicts, perRead)
	fmt.Fprintln(w, "stalls (sub-core cycles):")
	for reason := StallReason(1); reason < NumStallReasons; reason++ {
		fmt.Fprintf(w, "  %-12s %d\n", reason, s.Stalls[reason.String()])
	}
	if s.L1Accesses > 0 {
		fmt.Fprintf(w, "L1 hit rate:    %.3f\n", s.L1HitRate)
	}
	fmt.Fprintln(w, "CPI stack (top-down, every sub-core cycle attributed once):")
	for c := CPIComponent(0); c < NumCPIComponents; c++ {
		e := s.CPI[c.String()]
		fmt.Fprintf(w, "  %-14s %12d  %5.1f%%\n", c, e.Cycles, e.Share*100)
	}
}

// CSVHeader names CSVRow's columns.
const CSVHeader = "cycles,instructions,ipc,bank_conflicts,issue_cov"

// CSVRow renders the summary's headline columns.
func (s *Summary) CSVRow() string {
	return fmt.Sprintf("%d,%d,%.4f,%d,%.4f", s.Cycles, s.Instructions, s.IPC, s.BankConflicts, s.IssueCoV)
}
