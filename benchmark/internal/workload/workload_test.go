package workload

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// shape flattens everything the simulator receives from a workload: grid
// shapes and every distinct warp program's segments.
func shape(w *Workload) []any {
	var out []any
	for _, a := range w.Apps {
		for _, k := range a.Kernels {
			out = append(out, a.Name, k.Name, k.Blocks, k.WarpsPerBlock, k.RegsPerThread, k.SharedMemPerBlock)
			for b := 0; b < 2 && b < k.Blocks; b++ {
				for wi := 0; wi < k.WarpsPerBlock; wi++ {
					out = append(out, k.WarpProgram(b, wi).Segments())
				}
			}
		}
	}
	return out
}

func TestSameSeedSameKernels(t *testing.T) {
	for _, name := range Names {
		a, err := Build(name, 7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(name, 7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shape(a), shape(b)) || !reflect.DeepEqual(a.Order, b.Order) {
			t.Errorf("%s: two builds at seed 7 differ", name)
		}
	}
}

func TestDifferentSeedDifferentKernels(t *testing.T) {
	for _, name := range []string{"issue_dense", "mem_bound", "idle_latency"} {
		a, _ := Build(name, 1, 1)
		b, _ := Build(name, 2, 1)
		if reflect.DeepEqual(shape(a), shape(b)) {
			t.Errorf("%s: seeds 1 and 2 generate the same kernels", name)
		}
	}
	// The paper sweeps are the paper's fixed apps; only the order moves.
	a, _ := Build("paper_sweep", 1, 1)
	b, _ := Build("paper_sweep", 2, 1)
	if reflect.DeepEqual(a.Order, b.Order) {
		t.Error("paper_sweep: seeds 1 and 2 visit the apps in the same order")
	}
}

func TestPaperSweepIsTheSensitiveSet(t *testing.T) {
	want, err := workloads.Sensitive()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper_sweep", "guarded_sweep"} {
		w, err := Build(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Apps) != len(want) || len(want) != 25 {
			t.Fatalf("%s has %d apps, catalogue has %d sensitive, Table III has 25", name, len(w.Apps), len(want))
		}
		got := map[string]int64{}
		for _, a := range w.Apps {
			got[a.Name] = a.Instructions()
		}
		for _, a := range want {
			if got[a.Name] != a.Instructions() {
				t.Errorf("%s: %s has %d instructions, catalogue's has %d", name, a.Name, got[a.Name], a.Instructions())
			}
		}
	}
}

func TestCellsCoverAppsTimesScheds(t *testing.T) {
	w, err := Build("paper_sweep", 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range w.Cells() {
		seen[c.Name()] = true
	}
	if len(seen) != len(w.Apps)*len(w.Scheds) {
		t.Fatalf("%d distinct cells for %d apps x %d scheds", len(seen), len(w.Apps), len(w.Scheds))
	}
	if first := w.First(); first.App.Name != w.Apps[0].Name || first.Sched != "gto" {
		t.Errorf("warm-up cell is %s, want the first app in name order under gto", first.Name())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Build("issue_dense", 1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}
