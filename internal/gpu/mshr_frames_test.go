package gpu

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snapshot"
)

// gatherApp is memory-heavy on purpose: divergent gathers that miss to DRAM
// from four SMs, so every L1 MSHR and the shared L2 one hold fills in any
// frame, beside a kernel-shared stream that hits.
func gatherApp() []*Kernel {
	b := program.NewBuilder()
	b.Loop(40, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 24, Divergence: 8})
		lb.FMA(5, 4, 4, 5)
		lb.LDG(6, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 64 << 10, Shared: true})
		lb.IADD(7, 6, 5)
	})
	p := b.MustBuild()
	return []*Kernel{{Name: "gather", Blocks: 8, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return p }}}
}

// gatherCfg is four SMs with small caches, so the frames stay a few KB.
func gatherCfg() config.GPU {
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	cfg.L1KBPerSM = 16
	cfg.L2KB = 128
	return cfg
}

// mshrRows returns how many MSHR rows the device's memory system writes into
// a frame, per L1 and then for the L2: its encoding decoded back through the
// shapes mem.Hierarchy.EncodeState walks (a cache's state, then its MSHR's
// rows).
func mshrRows(t *testing.T, g *GPU) []int {
	t.Helper()
	e := snapshot.NewEncoder()
	g.hier.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var cache struct {
		tags                []uint64
		use                 []int64
		clock, hits, misses int64
	}
	var rows []struct {
		done int64
		line uint64
	}
	var counts []int
	for range g.cfg.NumSMs + 1 {
		d.State(&cache, &rows)
		counts = append(counts, len(rows))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestParentFramesReencode: the PR 23 build, whose MSHRs were a map and a
// completion heap, wrote gatherApp's frames at its third and fourth
// heartbeats (testdata/pr23_v8_gather_hb*.snap). Restoring the first and
// running to the next heartbeat must encode the second byte for byte: the
// table drops exactly the fills the map and heap dropped, the shared L2's
// included, whose same-cycle inserts from four SMs arrive out of time order.
func TestParentFramesReencode(t *testing.T) {
	first, err := os.ReadFile("testdata/pr23_v8_gather_hb3.snap")
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile("testdata/pr23_v8_gather_hb4.snap")
	if err != nil {
		t.Fatal(err)
	}
	ks := gatherApp()
	for _, frame := range [][]byte{first, second} {
		g, err := New(gatherCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(bytes.NewReader(frame), ks); err != nil {
			t.Fatal(err)
		}
		if rows := mshrRows(t, g); slices.Contains(rows, 0) {
			t.Fatalf("a frame at cycle %d has an empty MSHR (rows per L1, then L2: %v): it pins nothing", g.Cycle(), rows)
		}
	}
	g, err := New(gatherCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Restore(bytes.NewReader(first), ks); err != nil {
		t.Fatal(err)
	}
	var got []byte
	g.SetSnapshotHook(func(g *GPU) error {
		if got == nil {
			got = frameOf(t, g)
		}
		return nil
	})
	if err := g.ContinueKernels(ks, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatalf("the next heartbeat's frame (%d bytes) differs from the parent's (%d bytes)", len(got), len(second))
	}
}

// TestPinnedFramesCarryMSHRRows: both frames TestFrameBytesUnchanged pins
// carry MSHR rows, so its hashes pin the table's fill-dropping rules too.
func TestPinnedFramesCarryMSHRRows(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mid []int
	g.SetSnapshotHook(func(g *GPU) error {
		if mid == nil && g.Cycle() >= 4096 {
			mid = mshrRows(t, g)
		}
		return nil
	})
	if err := g.RunKernels(snapApp(), 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rows []int
	}{{"mid-kernel", mid}, {"drained", mshrRows(t, g)}} {
		if got := fmt.Sprint(tc.rows); got != "[8 8 8 8 32]" {
			t.Errorf("%s frame: MSHR rows per L1, then L2: %s, want [8 8 8 8 32]", tc.name, got)
		}
	}
}
