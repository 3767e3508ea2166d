package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
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

// TestParentFramesReencode: the build whose MSHRs were a map and a
// completion heap wrote gatherApp's frames at its third and fourth
// heartbeats; their memory hierarchy travels on in testdata/gather_v12_hb*.snap
// (TestV12FixturesKeepV11Hierarchy). Restoring the first and running to the
// next heartbeat must encode the second byte for byte: the table drops
// exactly the fills the map and heap dropped, the shared L2's included,
// whose same-cycle inserts from four SMs arrive out of time order.
func TestParentFramesReencode(t *testing.T) {
	first, err := os.ReadFile("testdata/gather_v12_hb3.snap")
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile("testdata/gather_v12_hb4.snap")
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

// TestV12FixturesKeepV11Hierarchy: testdata/gather_v12_hb*.snap are the
// frames this build writes at gatherApp's third and fourth heartbeats, and
// their payloads are testdata/gather_v11_hb*.snap's byte for byte through the
// end of the memory hierarchy: version 12 changed the collectors' state
// only, so the MSHR contents the map-and-heap build wrote, which versions 10
// and 11 carried on, carry over. The version 11 frames are refused with the
// version message.
func TestV12FixturesKeepV11Hierarchy(t *testing.T) {
	for _, hb := range []string{"3", "4"} {
		v11, err := os.ReadFile("testdata/gather_v11_hb" + hb + ".snap")
		if err != nil {
			t.Fatal(err)
		}
		v12, err := os.ReadFile("testdata/gather_v12_hb" + hb + ".snap")
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(gatherCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(bytes.NewReader(v11), gatherApp()); err == nil || !strings.Contains(err.Error(), "format version 11, this build reads only 12") {
			t.Errorf("heartbeat %s: restoring the v11 frame: %v, want the version refusal", hb, err)
		}
		if err := g.Restore(bytes.NewReader(v12), gatherApp()); err != nil {
			t.Fatal(err)
		}
		// The SMs' state closes the payload: what precedes it ends with the
		// memory hierarchy.
		e := snapshot.NewEncoder()
		for _, sm := range g.sms {
			sm.EncodeState(e)
		}
		var buf bytes.Buffer
		if err := e.Finish(&buf); err != nil {
			t.Fatal(err)
		}
		sms, err := snapshot.Payload(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		old := anyVersionPayload(t, v11)
		now, err := snapshot.Payload(v12)
		if err != nil {
			t.Fatal(err)
		}
		end := len(now) - len(sms)
		if !bytes.HasSuffix(now, sms) || end > len(old) || !bytes.Equal(now[:end], old[:end]) {
			t.Errorf("heartbeat %s: the v12 payload's first %d bytes, through the memory hierarchy, differ from the v11 payload's", hb, end)
		}
	}
}

// anyVersionPayload returns the payload of a frame of any format version:
// magic | uvarint version | uvarint length | payload | checksum.
func anyVersionPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	body := frame[8 : len(frame)-4]
	_, n := binary.Uvarint(body)
	plen, m := binary.Uvarint(body[n:])
	if payload := body[n+m:]; uint64(len(payload)) == plen {
		return payload
	}
	t.Fatalf("a %d-byte frame whose payload is not the length its header gives", len(frame))
	return nil
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
