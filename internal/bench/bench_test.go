package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func testApp(name string, iters int) workloads.App {
	p := workloads.Profile{
		Name: name, Blocks: 2, WarpsPerBlock: 4, RegsPerThread: 8,
		Iters: iters, ILP: 2, FMAs: 4,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return workloads.App{Name: name, Suite: "test", Kernels: []*gpu.Kernel{p.Kernel()}}
}

func testCfg(name string) config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 1
	g.Name = name
	return g
}

func sweep(t *testing.T) (*Baseline, []workloads.App, []string) {
	t.Helper()
	cfgs := []config.GPU{testCfg("cfgA"), testCfg("cfgB")}
	names := []string{"cfgA", "cfgB"}
	apps := []workloads.App{testApp("app0", 300), testApp("app1", 500)}
	res, err := harness.Run(context.Background(), cfgs, names, apps, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("sweep faulted")
	}
	return FromResult(res, apps, names, "2026-01-01T00:00:00Z"), apps, names
}

// writeBytes writes the baseline to a temp file and returns its bytes.
func writeBytes(t *testing.T, b *Baseline) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBaselineDeterminism: two identical sweeps yield byte-identical
// files — nothing timestamp-derived or wall-clock is in a cell.
func TestBaselineDeterminism(t *testing.T) {
	encode := func() string {
		b, _, _ := sweep(t)
		return string(writeBytes(t, b))
	}
	b1, b2 := encode(), encode()
	if b1 != b2 {
		t.Errorf("baselines differ:\n--- run1 ---\n%s\n--- run2 ---\n%s", b1, b2)
	}
	if !strings.Contains(b1, `"cpi_shares"`) {
		t.Error("baseline lost the CPI shares")
	}
}

// TestCellShape: each cell carries a full CPI-share map that sums to 1.
func TestCellShape(t *testing.T) {
	b, apps, names := sweep(t)
	if len(b.Cells) != len(apps)*len(names) {
		t.Fatalf("got %d cells, want %d", len(b.Cells), len(apps)*len(names))
	}
	for _, c := range b.Cells {
		if c.Cycles <= 0 || c.IPC <= 0 {
			t.Errorf("cell %s/%s: empty measurements: %+v", c.App, c.Config, c)
		}
		if len(c.CPIShares) != int(stats.NumCPIComponents) {
			t.Errorf("cell %s/%s: %d CPI shares, want %d", c.App, c.Config, len(c.CPIShares), stats.NumCPIComponents)
		}
		var sum float64
		for _, s := range c.CPIShares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cell %s/%s: CPI shares sum to %v", c.App, c.Config, sum)
		}
	}
}

// TestWriteFile: the written document carries the schema tag and decodes
// back to the same cells; an unwritable path is an error.
func TestWriteFile(t *testing.T) {
	b, _, _ := sweep(t)
	var got Baseline
	if err := json.Unmarshal(writeBytes(t, b), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Created != b.Created || !reflect.DeepEqual(got.Cells, b.Cells) {
		t.Fatalf("file round trip lost data:\n got %+v\nwant %+v", got, *b)
	}
	if err := b.WriteFile(filepath.Join(t.TempDir(), "missing", "BENCH.json")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
