package isa

// Timing constants approximate the Volta V100 pipeline the paper's Accel-Sim
// configuration models. Latencies are dependent-issue latencies: the number
// of cycles after dispatch before the destination register is written back
// (and a dependent instruction may issue). Memory latencies are *not* here:
// the LSU and cache hierarchy determine those dynamically.

// Latency returns the execution latency in cycles for a non-memory opcode.
// Memory opcodes return the LSU pipeline depth only; queueing and cache
// time are added by the memory system.
func (o Op) Latency() int {
	switch o.UnitOf() {
	case ClassFP32:
		return 4
	case ClassINT:
		return 4
	case ClassSFU:
		return 16
	case ClassTensor:
		return 16
	case ClassMEM:
		return 4 // address-generation pipeline before the LSU queue
	default:
		return 1
	}
}

// WarpSize is the number of threads that execute an instruction in
// lock-step. Fixed at 32 across every architecture the paper studies.
const WarpSize = 32

// WarpRegBytes returns the register-file bytes one warp occupies at the
// given per-thread register count: a 4-byte register per thread.
func WarpRegBytes(regsPerThread int) int { return regsPerThread * WarpSize * 4 }

// InitiationInterval returns how many cycles an execution unit with the
// given number of SIMD lanes (>= 1, config.Validate) is occupied by one warp
// instruction. A Volta sub-core has 16 FP32 lanes, so a 32-thread warp
// occupies the FP32 pipe for 2 cycles.
func InitiationInterval(lanes int) int { return (WarpSize + lanes - 1) / lanes }
