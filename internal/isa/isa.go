// Package isa defines the SASS-like instruction set executed by the
// sub-core simulator.
//
// The simulator is not a functional emulator: instructions carry no data,
// only the structural information the paper's studied effects depend on —
// which execution-unit class an instruction occupies, how long it occupies
// it, which architectural registers it reads and writes (and therefore
// which register-file banks it touches), and how memory instructions
// exercise the cache hierarchy.
package isa

import "fmt"

// Reg identifies an architectural register within a warp. Registers are
// vector registers: one 32-bit lane per thread in the warp.
type Reg uint16

// NoReg marks an unused operand slot (the SASS "RZ" reads as a constant
// zero and touches no bank; we fold both cases into NoReg).
const NoReg Reg = 0xFFFF

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r != NoReg }

// Op enumerates the instruction opcodes the simulator models. The set is a
// condensed SASS: one opcode per distinct (unit class, operand shape,
// latency) behaviour the paper's workloads exercise.
type Op uint8

const (
	// OpNOP occupies an issue slot and nothing else.
	OpNOP Op = iota
	// OpFMA is a fused multiply-add: d = a*b+c. Three source operands —
	// the worst case for a two-bank register file and the instruction the
	// paper's microbenchmarks are built from.
	OpFMA
	// OpFADD is a two-source FP32 add.
	OpFADD
	// OpFMUL is a two-source FP32 multiply.
	OpFMUL
	// OpIADD is a two-source integer add (address arithmetic, counters).
	OpIADD
	// OpIMAD is a three-source integer multiply-add.
	OpIMAD
	// OpISETP is a two-source integer compare writing a predicate; we model
	// the predicate as a regular destination register.
	OpISETP
	// OpMOV copies one register.
	OpMOV
	// OpSFU covers the special-function unit ops (rsqrt, sin, exp...).
	OpSFU
	// OpTensor is an HMMA-style tensor-core op (three sources).
	OpTensor
	// OpLDG loads from global memory.
	OpLDG
	// OpSTG stores to global memory.
	OpSTG
	// OpLDS loads from the shared-memory scratchpad.
	OpLDS
	// OpSTS stores to the shared-memory scratchpad.
	OpSTS
	// OpLDC loads from constant memory (kernel arguments); always hits the
	// constant cache in our model.
	OpLDC
	// OpBAR is a thread-block-wide barrier (bar.sync).
	OpBAR
	// OpBRA is a branch; control flow is pre-resolved by the program
	// representation, so BRA only costs an issue slot and INT-unit time.
	OpBRA
	// OpEXIT terminates the warp.
	OpEXIT

	numOps
)

var opNames = [numOps]string{
	OpNOP: "NOP", OpFMA: "FMA", OpFADD: "FADD", OpFMUL: "FMUL",
	OpIADD: "IADD", OpIMAD: "IMAD", OpISETP: "ISETP", OpMOV: "MOV",
	OpSFU: "SFU", OpTensor: "HMMA", OpLDG: "LDG", OpSTG: "STG",
	OpLDS: "LDS", OpSTS: "STS", OpLDC: "LDC", OpBAR: "BAR",
	OpBRA: "BRA", OpEXIT: "EXIT",
}

// String returns the SASS-style mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Class identifies the execution-unit a dispatched instruction occupies.
type Class uint8

const (
	// ClassNone is for instructions that finish at issue (NOP, BAR, EXIT).
	ClassNone Class = iota
	// ClassFP32 is the FP32/FMA SIMD pipeline (16 lanes per Volta sub-core).
	ClassFP32
	// ClassINT is the integer SIMD pipeline (16 lanes per Volta sub-core).
	ClassINT
	// ClassSFU is the special-function pipeline (4 lanes per sub-core).
	ClassSFU
	// ClassTensor is the tensor core (one per sub-core).
	ClassTensor
	// ClassMEM routes through the SM-shared load/store unit.
	ClassMEM

	NumClasses
)

var classNames = [NumClasses]string{
	ClassNone: "none", ClassFP32: "fp32", ClassINT: "int",
	ClassSFU: "sfu", ClassTensor: "tensor", ClassMEM: "mem",
}

// String returns the unit name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// UnitOf returns the execution-unit class an opcode dispatches to.
func (o Op) UnitOf() Class {
	switch o {
	case OpFMA, OpFADD, OpFMUL:
		return ClassFP32
	case OpIADD, OpIMAD, OpISETP, OpMOV, OpBRA:
		return ClassINT
	case OpSFU:
		return ClassSFU
	case OpTensor:
		return ClassTensor
	case OpLDG, OpSTG, OpLDS, OpSTS, OpLDC:
		return ClassMEM
	default:
		return ClassNone
	}
}

// IsBarrier reports whether the op is a block-wide barrier.
func (o Op) IsBarrier() bool { return o == OpBAR }

// IsExit reports whether the op terminates the warp.
func (o Op) IsExit() bool { return o == OpEXIT }

// Space enumerates memory spaces for memory instructions.
type Space uint8

const (
	// SpaceNone is for non-memory instructions.
	SpaceNone Space = iota
	// SpaceGlobal is device memory through L1/L2/DRAM.
	SpaceGlobal
	// SpaceShared is the per-SM scratchpad with 32 banks.
	SpaceShared
	// SpaceConst is the constant cache (always hits in our model).
	SpaceConst
)

// SpaceOf returns the memory space an opcode accesses.
func (o Op) SpaceOf() Space {
	switch o {
	case OpLDG, OpSTG:
		return SpaceGlobal
	case OpLDS, OpSTS:
		return SpaceShared
	case OpLDC:
		return SpaceConst
	default:
		return SpaceNone
	}
}

// Pattern describes how the 32 threads of a warp spread a memory access.
// It determines coalescing behaviour and therefore L1 pressure.
type Pattern uint8

const (
	// PatNone is for non-memory instructions.
	PatNone Pattern = iota
	// PatCoalesced: consecutive 4-byte words; one 128-byte transaction.
	PatCoalesced
	// PatStrided: fixed stride between threads; several transactions.
	PatStrided
	// PatRandom: each thread touches an unrelated line; up to 32
	// transactions within the instruction's footprint.
	PatRandom
	// PatBroadcast: all threads read the same word; one transaction.
	PatBroadcast
)

// MemTrait parameterizes a memory instruction's address behaviour. Address
// streams are synthesized by the LSU from these traits, the warp's global
// ID, and a per-warp access counter, so no traces need to be stored.
type MemTrait struct {
	// Pattern selects the intra-warp address spread.
	Pattern Pattern
	// Footprint is the size in bytes of the region this instruction
	// wanders over (per warp for PatRandom/PatStrided; shared across the
	// kernel for streaming re-use when Shared is true).
	Footprint uint32
	// StrideBytes is the inter-thread stride for PatStrided.
	StrideBytes uint32
	// Shared marks the footprint as kernel-global (re-used across warps,
	// cache-friendly) rather than per-warp private.
	Shared bool
	// Divergence caps the distinct cache lines a PatRandom access touches
	// (gathers are rarely fully divergent); 0 means fully divergent (32).
	Divergence uint8
}

// Instr is a decoded instruction descriptor. Instr is a value type; warp
// programs are slices of Instr and cursors copy them freely.
type Instr struct {
	// _ aligns Instr to 8 bytes, which pads its 28 to 32: a copy is then two
	// disjoint 16-byte moves, whose reload store forwarding serves, not two
	// overlapping ones. It must lead — a trailing zero-size field pads the
	// struct to 40 — and a snapshot writes it as nothing.
	_ [0]uint64
	// Op is the opcode.
	Op Op
	// Dst is the destination register, or NoReg.
	Dst Reg
	// Srcs are the source registers; unused slots hold NoReg.
	Srcs [3]Reg
	// Mem carries address-behaviour for memory ops; zero otherwise.
	Mem MemTrait
}

// NumSrcs returns the number of valid source operands.
func (in *Instr) NumSrcs() int {
	n := 0
	for _, s := range in.Srcs {
		if s.Valid() {
			n++
		}
	}
	return n
}

// HasSrc reports whether the instruction reads any register.
func (in *Instr) HasSrc() bool { return in.Srcs[0].Valid() || in.Srcs[1].Valid() || in.Srcs[2].Valid() }

// String formats the instruction SASS-style, e.g. "FMA R4, R1, R2, R3".
func (in Instr) String() string {
	s := in.Op.String()
	if in.Dst.Valid() {
		s += fmt.Sprintf(" R%d", in.Dst)
	}
	for _, r := range in.Srcs {
		if r.Valid() {
			s += fmt.Sprintf(", R%d", r)
		}
	}
	return s
}

// MakeFMA builds d = a*b+c.
func MakeFMA(d, a, b, c Reg) Instr { return Instr{Op: OpFMA, Dst: d, Srcs: [3]Reg{a, b, c}} }

// Make2 builds a generic two-source instruction.
func Make2(op Op, d, a, b Reg) Instr { return Instr{Op: op, Dst: d, Srcs: [3]Reg{a, b, NoReg}} }

// Make1 builds a one-source instruction.
func Make1(op Op, d, a Reg) Instr { return Instr{Op: op, Dst: d, Srcs: [3]Reg{a, NoReg, NoReg}} }

// MakeBar builds a block-wide barrier.
func MakeBar() Instr { return Instr{Op: OpBAR, Dst: NoReg, Srcs: [3]Reg{NoReg, NoReg, NoReg}} }

// MakeExit builds a warp-exit.
func MakeExit() Instr { return Instr{Op: OpEXIT, Dst: NoReg, Srcs: [3]Reg{NoReg, NoReg, NoReg}} }

// MakeLoad builds a load (global or shared by op) with addressing trait t,
// address register a and destination d.
func MakeLoad(op Op, d, a Reg, t MemTrait) Instr {
	return Instr{Op: op, Dst: d, Srcs: [3]Reg{a, NoReg, NoReg}, Mem: t}
}

// MakeStore builds a store with address register a and data register v.
func MakeStore(op Op, a, v Reg, t MemTrait) Instr {
	return Instr{Op: op, Dst: NoReg, Srcs: [3]Reg{a, v, NoReg}, Mem: t}
}
