package smcore

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// address is the per-transaction synthesis lineAddrs replaced, kept verbatim
// as the reference TestLSUAddressesUnchanged holds it to.
func (l *LSU) address(w *Warp, in *isa.Instr, i int) uint64 {
	line := uint64(l.sm.cfg.LineBytes)
	foot := uint64(in.Mem.Footprint)
	if foot < line {
		foot = line
	}
	lines := foot / line
	var base uint64
	if in.Mem.Shared {
		base = 1 << 40
	} else {
		base = (uint64(w.GID) + 1) << 24
	}
	var idx uint64
	switch in.Mem.Pattern {
	case isa.PatRandom:
		idx = w.NextRand() % lines
	case isa.PatBroadcast:
		idx = uint64(w.MemCounter) % lines
	default:
		// Streaming: consecutive accesses walk consecutive lines.
		idx = uint64(w.MemCounter) % lines
	}
	return base + (idx+uint64(i))%lines*line
}

// TestLSUAddressesUnchanged: lineAddrs gives the addresses, and draws the
// warp's random numbers, exactly as the per-transaction address did — for
// every pattern, a footprint smaller than a line, fewer lines than a warp
// has threads, more, and footprints private and shared.
func TestLSUAddressesUnchanged(t *testing.T) {
	sm, _ := testSM(t, nil)
	patterns := []isa.Pattern{isa.PatNone, isa.PatCoalesced, isa.PatStrided, isa.PatRandom, isa.PatBroadcast}
	for _, pat := range patterns {
		for _, foot := range []uint32{0, 64, 128, 5 * 128, 31 * 128, 33 * 128, 1 << 20} {
			for _, shared := range []bool{false, true} {
				for _, count := range []int64{1, 6, 37, 1 << 33} {
					in := isa.Instr{Mem: isa.MemTrait{Pattern: pat, Footprint: foot, StrideBytes: 256, Divergence: 7, Shared: shared}}
					w := Warp{warpState: warpState{GID: 5 + count, MemCounter: count, rng: uint64(count)*0x9E3779B97F4A7C15 + 1}}
					ref := w
					want := make([]uint64, isa.WarpSize)
					for i := range want {
						want[i] = sm.lsu.address(&ref, &in, i)
					}
					got := lineAddrs(make([]uint64, isa.WarpSize), &w, &in, sm.cfg.LineBytes)
					if !slices.Equal(got, want) || w.rng != ref.rng {
						t.Fatalf("pattern %d, footprint %d, shared %v, access %d:\ngot  %x\nwant %x", pat, foot, shared, count, got, want)
					}
				}
			}
		}
	}
}
