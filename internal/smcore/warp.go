// Package smcore models one streaming multiprocessor: its sub-cores (warp
// scheduler + operand collector + SIMD execution units each), the
// SM-shared load/store unit, thread-block-granularity resource
// allocation, and barriers. This is the structure whose partitioning the
// paper studies; every mechanism the paper identifies — static sub-core
// warp assignment, block-granularity deallocation, per-sub-core bank and
// collector-unit budgets — is modeled directly.
package smcore

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// WarpState tracks a resident warp's lifecycle.
type WarpState uint8

const (
	// WarpEmpty marks an unoccupied warp slot.
	WarpEmpty WarpState = iota
	// WarpActive warps fetch and issue.
	WarpActive
	// WarpAtBarrier warps wait for the rest of their block.
	WarpAtBarrier
	// WarpFinished warps have issued EXIT but still hold their slot and
	// registers until the whole block completes — the static-assignment
	// pathology of Section III-B.
	WarpFinished
)

const sbWords = 4 // scoreboard bitset covers 256 architectural registers

// Warp is a resident warp's hardware state on an SM: the plain-data
// warpState, plus what restore rebuilds rather than a frame carries.
type Warp struct {
	warpState
	// Cursor stands at the issue point; a frame carries its position only.
	Cursor program.Cursor
	// rng is the xorshift state for PatRandom addresses: warpSeed(GID)
	// stepped Draws times, which restore replays.
	rng uint64
	// BankOff is the register-bank offset of the warp's slot (bankOffset).
	BankOff int16
	// StolenCU is the collector unit stolen for the warp's head instruction,
	// or -1; restore relinks it from the unit, which names its warp.
	StolenCU int8
}

// warpState is a warp's state minus what Warp keeps beside it: plain data
// only, carried whole by snapshot.State (snapshot.go).
type warpState struct {
	// State is the lifecycle state.
	State WarpState
	// IBufN is the 2-entry instruction buffer's fill level, at most
	// min(2, Cursor.Left()): the instructions are the program's, in place.
	// It sits beside State so the two share one word of the struct.
	IBufN int8
	// GID is the kernel-wide warp index (block * warpsPerBlock + lane),
	// used for address synthesis and reporting.
	GID int64
	// BlockSlot indexes the SM's resident-block table.
	BlockSlot int32
	// SubCore and SchedSlot locate the warp in its scheduler's PC table.
	SubCore   int8
	SchedSlot int16
	// Age is the SM-wide allocation order; GTO/RBA tie-break on it.
	Age int64
	// sb is the pending-destination-register bitset (RAW/WAW scoreboard).
	sb [sbWords]uint64
	// MemCounter sequences this warp's memory accesses for address
	// synthesis.
	MemCounter int64
	// Draws counts the warp's PatRandom address draws (NextRand).
	Draws int64
}

// SBSet reserves register r (at issue).
func (w *Warp) SBSet(r isa.Reg) {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63 // clamp: workloads stay under 256 regs
	}
	w.sb[idx] |= 1 << bit
}

// SBClear releases register r (at writeback).
func (w *Warp) SBClear(r isa.Reg) {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63
	}
	w.sb[idx] &^= 1 << bit
}

// SBPending reports whether register r has an outstanding write.
func (w *Warp) SBPending(r isa.Reg) bool {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63
	}
	return w.sb[idx]&(1<<bit) != 0
}

// SBEmpty reports whether no writes are outstanding.
func (w *Warp) SBEmpty() bool { return w.sb == [sbWords]uint64{} }

// Hazard reports whether instruction in has a RAW or WAW hazard against
// this warp's outstanding writes.
func (w *Warp) Hazard(in *isa.Instr) bool {
	if in.Dst.Valid() && w.SBPending(in.Dst) {
		return true
	}
	for _, s := range in.Srcs {
		if s.Valid() && w.SBPending(s) {
			return true
		}
	}
	return false
}

// NextRand steps the warp's xorshift64 PRNG and counts the draw.
func (w *Warp) NextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	w.Draws++
	return x
}

// warpSeed is the xorshift state of warp gid before its first draw.
func warpSeed(gid int64) uint64 { return uint64(gid)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 }

// resetWarp prepares a slot for a new warp.
func resetWarp(w *Warp, gid int64, blockSlot int32, subCore int8, schedSlot int16, age int64, prog *program.Program, bankOff int16) {
	*w = Warp{
		warpState: warpState{
			State:     WarpActive,
			GID:       gid,
			BlockSlot: blockSlot,
			SubCore:   subCore,
			SchedSlot: schedSlot,
			Age:       age,
		},
		Cursor:   prog.Cursor(),
		rng:      warpSeed(gid),
		BankOff:  bankOff,
		StolenCU: -1,
	}
}
