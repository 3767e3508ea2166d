package exp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// The paper as data: every number the paper reports is a target here and
// nowhere else. The "paper:" notes print its values (Paper), and the
// "# score" lines that close each table score against it; EXPERIMENTS.md's
// verdicts must match them (TestExperimentVerdictsAreComputed at the
// module root).

// kind is how a reading compares with the paper's value: by its distance
// from 1 (a gain) or from 0 (a value); a calibrated one is printed, never
// scored (⬜).
type kind int

const (
	gain kind = iota + 1
	value
	calibrated
)

// withinFactor is the rule's f (EXPERIMENTS.md states the rule).
const withinFactor = 1.5

// paperSMs is the SM count of the paper's V100, Fig. 18's unit.
const paperSMs = 80

// target is one number the paper reports. read is its quantity in the
// experiment's table (nil when no table holds it); bound marks the paper's
// own stated bound ("<1%"); over names a target whose distance divides
// this one's, ours and the paper's alike, the quotient scored as a gain;
// why, when set, is printed in place of a score.
type target struct {
	id, name  string
	read      func(*Table) float64
	paper     float64
	kind      kind
	bound     bool
	over, why string
}

var paperTable = []target{
	{id: "sec1effects", name: "effects-1-2-dominate", why: "no number; the claim is about real applications and this table runs one targeted microbenchmark per effect"},
	{id: "fig1", name: "fully-connected", read: cell("geomean", "fully-connected"), paper: 1.132, kind: gain},
	{id: "fig3", name: "unbalanced@a100", paper: 3.9, kind: value, why: "the partitioned device is Table II's V100"},
	{id: "fig3", name: "unbalanced", read: cell("partitioned(volta/ampere)", "unbalanced"), paper: 3.5, kind: value},
	{id: "fig3", name: "unbalanced@kepler", read: cell("monolithic(kepler)", "unbalanced"), paper: 1, kind: value},
	{id: "fig3", name: "balanced", read: cell("partitioned(volta/ampere)", "balanced"), paper: 1, kind: value},
	{id: "fig3", name: "balanced@kepler", read: cell("monolithic(kepler)", "balanced"), paper: 1, kind: value},
	{id: "fig8", name: "srr-optimal", why: "no number; the paper states the shape (SRR optimal, Shuffle's gap growing)"},
	{id: "fig9", name: "shuffle+rba", read: cell("geomean", "shuffle+rba"), paper: 1.106, kind: gain},
	{id: "fig9", name: "fully-connected", read: cell("geomean", "fully-connected"), paper: 1.132, kind: gain},
	{id: "fig10", name: "rba", read: cell("geomean", "rba"), paper: 1.111, kind: gain},
	{id: "fig10", name: "4cu", read: cell("geomean", "4cu"), paper: 1.041, kind: gain},
	{id: "fig10", name: "bank-steal", read: cell("geomean", "bank-steal"), paper: 1.01, kind: gain, bound: true},
	{id: "fig11", name: "fc", read: rbaWins(0), paper: 1.061, kind: gain},
	{id: "fig11", name: "fc+rba", read: rbaWins(1), paper: 1.196, kind: gain},
	{id: "fig12", name: "4cu", read: cell("geomean", "4cu"), paper: 1.041, kind: gain},
	{id: "fig12", name: "8cu", read: cell("geomean", "8cu"), paper: 1.071, kind: gain},
	{id: "fig12", name: "16cu", read: cell("geomean", "16cu"), paper: 1.096, kind: gain},
	{id: "fig13", name: "4cu-area", read: cell("4cu", "area"), paper: 1.27, kind: calibrated},
	{id: "fig13", name: "4cu-power", read: cell("4cu", "power"), paper: 1.60, kind: calibrated},
	{id: "fig13", name: "rba-area", read: cell("rba", "area"), paper: 1.01, kind: calibrated},
	{id: "fig13", name: "rba-power", read: cell("rba", "power"), paper: 1.01, kind: calibrated},
	{id: "fig14", name: "srad-gto", read: cell("rod-srad/V100-scaled", "mean"), paper: 22.2, kind: value, why: "reads/cycle of one sub-core in the paper, of the whole SM here"},
	{id: "fig14", name: "srad-rba", read: cell("rod-srad/V100-scaled+RBA", "mean"), paper: 27.1, kind: value, over: "srad-gto"},
	{id: "fig14", name: "srad-fc", read: cell("rod-srad/FullyConnected-scaled", "mean"), paper: 23.4, kind: value, over: "srad-rba"},
	{id: "fig15", name: "srr", read: cell("mean", "srr"), paper: 1.331, kind: gain},
	{id: "fig15", name: "shuffle", read: cell("mean", "shuffle"), paper: 1.274, kind: gain},
	{id: "fig16", name: "srr", read: cell("mean", "srr"), paper: 1.175, kind: gain},
	{id: "fig16", name: "shuffle", read: cell("mean", "shuffle"), paper: 1.139, kind: gain},
	{id: "fig17", name: "rr", read: cell("mean", "rr"), paper: 0.80, kind: value},
	{id: "fig17", name: "srr", read: cell("mean", "srr"), paper: 0.11, kind: value},
	{id: "fig17", name: "q8-rr", read: cell("tpcU-q8", "rr"), paper: 1.01, kind: value},
	{id: "fig18", name: "partitioned", read: crossing("partitioned"), paper: 100.0 / paperSMs, kind: gain},
	{id: "fig18", name: "partitioned+ours", read: crossing("partitioned+ours"), paper: 84.0 / paperSMs, kind: gain},
	{id: "sec5cu", name: "2cu-mae", read: cell("MAE", "2cu"), paper: 0.162, kind: value},
	{id: "sec5cu", name: "worst-mae", read: func(t *Table) float64 { return slices.Max(t.row("MAE")) }, paper: 0.43, kind: value},
	{id: "sec5cu", name: "2cu-mae/best", read: func(t *Table) float64 { return t.at("MAE", "2cu") / slices.Min(t.row("MAE")) }, paper: 1, kind: gain, bound: true},
	{id: "sec6b4", name: "lat0-lat20", read: func(t *Table) float64 { return t.at("geomean", "lat0") - t.at("geomean", "lat20") }, paper: 0.001, kind: value, bound: true},
	{id: "sec6b5", name: "rba@2banks", read: cell("geomean", "rba@2banks"), paper: 1.193, kind: gain, why: "open: fig10 reads these cells with the paper's 11.1%; unchecked against the paper text"},
	{id: "sec6b5", name: "rba@4banks", read: cell("geomean", "rba@4banks"), paper: 1.154, kind: gain, over: "rba@2banks"},
	{id: "abl-table", name: "16/4-entry", read: func(t *Table) float64 { return t.at("mean", "16-entry") / t.at("mean", "4-entry") }, paper: 1.02, kind: gain, bound: true},
	{id: "tab2", kind: calibrated},
	{id: "tab3", kind: calibrated},
}

// pct is a speedup as the paper writes it, a gain in percent.
func pct(speedup float64) float64 { return (speedup - 1) * 100 }

// Paper is the paper's value for target name of experiment id.
func Paper(id, name string) float64 { return targetOf(id, name).paper }

func targetOf(id, name string) target {
	return paperTable[slices.IndexFunc(paperTable, func(g target) bool { return g.id == id && g.name == name })]
}

// Calibrated lists the artifacts no experiment prints: the model was built
// from them (⬜).
func Calibrated() (ids []string) {
	for _, g := range paperTable {
		if g.read == nil && g.why == "" {
			ids = append(ids, g.id)
		}
	}
	return ids
}

// reference is what a kind measures distance from.
func reference(k kind) float64 {
	if k == gain {
		return 1
	}
	return 0
}

// judge is the one rule. The ratio is the reading's distance from its
// reference over the paper's. A bound holds when the ratio is at most 1 in
// size; a point is ✅ when the two lie on the same side of the reference
// and the ratio is within withinFactor either way.
func judge(k kind, bound bool, ours, paper float64) (ratio float64, verdict string) {
	ref := reference(k)
	ratio = (ours - ref) / (paper - ref)
	ok := math.Abs(ratio) <= 1
	if !bound {
		sameSide := (ours > ref) == (paper > ref)
		ok = sameSide && max(ratio, (paper-ref)/(ours-ref)) <= withinFactor
	}
	switch {
	case k == calibrated:
		return ratio, "⬜"
	case ok:
		return ratio, "✅"
	}
	return ratio, "🟡"
}

// verdicts orders the verdicts from best to worst; — is nothing scored.
var verdicts = []string{"—", "✅", "⬜", "🟡"}

// score is table t's "# score" lines: one per target of its experiment,
// then the experiment's verdict, the worst of its targets'.
func score(t *Table) []string {
	var lines []string
	worst := 0
	for _, g := range paperTable {
		if g.id != t.ID {
			continue
		}
		if g.why != "" {
			lines = append(lines, fmt.Sprintf("score %s %s: not scored (%s)", g.id, g.name, g.why))
			continue
		}
		ours, paper, k, rel := g.read(t), g.paper, g.kind, ""
		if g.over != "" {
			o, ref := targetOf(g.id, g.over), reference(k)
			ours, paper, k = (ours-ref)/(o.read(t)-ref), (paper-ref)/(o.paper-ref), gain
		}
		ratio, v := judge(k, g.bound, ours, paper)
		err := fmt.Sprintf("%.3fpp", math.Abs(ours-paper)*100)
		if k != gain {
			err = fmt.Sprintf("%.1f%%", math.Abs(ours/paper-1)*100)
		}
		if g.bound {
			rel = "≤"
		}
		lines = append(lines, fmt.Sprintf("score %s %s: ours %.3f paper %s%.3f err %s ratio %.3f %s", g.id, g.name, ours, rel, paper, err, ratio, v))
		worst = max(worst, slices.Index(verdicts, v))
	}
	return append(lines, fmt.Sprintf("score %s: %s", t.ID, verdicts[worst]))
}

// row is the values of t's row label; a target naming a row or a column
// its table does not print is a bug in paperTable.
func (t *Table) row(label string) []float64 {
	if i := slices.IndexFunc(t.Rows, func(r Row) bool { return r.Label == label }); i >= 0 {
		return t.Rows[i].Values
	}
	panic(fmt.Sprintf("exp: %s has no row %q", t.ID, label))
}

func (t *Table) at(row, col string) float64 {
	if c := slices.Index(t.Columns, col); c >= 0 {
		return t.row(row)[c]
	}
	panic(fmt.Sprintf("exp: %s has no column %q", t.ID, col))
}

func cell(row, col string) func(*Table) float64 {
	return func(t *Table) float64 { return t.at(row, col) }
}

// rbaWins is Fig. 11's selection: column col's geomean over the apps where
// partitioned RBA (column 2) beats the fully-connected SM (column 0).
func rbaWins(col int) func(*Table) float64 {
	return func(t *Table) float64 {
		var v []float64
		for _, r := range t.Rows[:len(t.Rows)-1] {
			if r.Values[2] > r.Values[0] {
				v = append(v, r.Values[col])
			}
		}
		return stats.GeoMean(v)
	}
}

// crossing is Fig. 18's equivalence point per fully-connected SM: the SM
// count ("SMs=n" rows) at which column col reaches fully-connected@4, by
// linear interpolation; NaN if it never does.
func crossing(col string) func(*Table) float64 {
	return func(t *Table) float64 {
		for i := 1; i < len(t.Rows); i++ {
			lo, hi := t.Rows[i-1].Label, t.Rows[i].Label
			a, b, fc := t.at(lo, col), t.at(hi, col), t.at(lo, "fully-connected@4")
			var n float64
			if _, err := fmt.Sscanf(lo, "SMs=%g", &n); err == nil && a < fc && fc <= b {
				return (n + (fc-a)/(b-a)) / ScaledSMs
			}
		}
		return math.NaN()
	}
}
