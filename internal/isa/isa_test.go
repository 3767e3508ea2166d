package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstrLayout pins Instr at 32 bytes, 8-aligned. Every copy of an
// instruction on the cycle path — the I-buffer fill and shift, a collector
// unit's staging, an LSU entry — is then two disjoint 16-byte moves. At 28
// bytes, 4-aligned, a copy is two overlapping 16-byte moves, and the reload
// that follows misses store forwarding.
func TestInstrLayout(t *testing.T) {
	if size, align := unsafe.Sizeof(Instr{}), unsafe.Alignof(Instr{}); size != 32 || align != 8 {
		t.Fatalf("Instr is %d bytes, %d-aligned; want 32, 8-aligned, so a copy is two disjoint 16-byte moves that store forwarding serves", size, align)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpFMA: "FMA", OpLDG: "LDG", OpBAR: "BAR", OpEXIT: "EXIT", OpSFU: "SFU",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "Op(200)" {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestUnitOf(t *testing.T) {
	cases := map[Op]Class{
		OpFMA: ClassFP32, OpFADD: ClassFP32, OpFMUL: ClassFP32,
		OpIADD: ClassINT, OpIMAD: ClassINT, OpMOV: ClassINT, OpBRA: ClassINT,
		OpSFU: ClassSFU, OpTensor: ClassTensor,
		OpLDG: ClassMEM, OpSTG: ClassMEM, OpLDS: ClassMEM, OpSTS: ClassMEM, OpLDC: ClassMEM,
		OpBAR: ClassNone, OpEXIT: ClassNone, OpNOP: ClassNone,
	}
	for op, want := range cases {
		if got := op.UnitOf(); got != want {
			t.Errorf("%v.UnitOf() = %v, want %v", op, got, want)
		}
	}
}

func TestSpaceOf(t *testing.T) {
	cases := map[Op]Space{
		OpLDG: SpaceGlobal, OpSTG: SpaceGlobal,
		OpLDS: SpaceShared, OpSTS: SpaceShared,
		OpLDC: SpaceConst, OpFMA: SpaceNone,
	}
	for op, want := range cases {
		if got := op.SpaceOf(); got != want {
			t.Errorf("%v.SpaceOf() = %v, want %v", op, got, want)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !OpBAR.IsBarrier() || OpEXIT.IsBarrier() {
		t.Error("IsBarrier misclassifies")
	}
	if !OpEXIT.IsExit() || OpBAR.IsExit() {
		t.Error("IsExit misclassifies")
	}
}

func TestNumSrcs(t *testing.T) {
	fma := MakeFMA(4, 1, 2, 3)
	if n := fma.NumSrcs(); n != 3 {
		t.Errorf("FMA NumSrcs = %d, want 3", n)
	}
	add := Make2(OpFADD, 3, 1, 2)
	if n := add.NumSrcs(); n != 2 {
		t.Errorf("FADD NumSrcs = %d, want 2", n)
	}
	bar := MakeBar()
	if n := bar.NumSrcs(); n != 0 {
		t.Errorf("BAR NumSrcs = %d, want 0", n)
	}
	if bar.HasSrc() {
		t.Error("BAR HasSrc = true, want false")
	}
	if !fma.HasSrc() {
		t.Error("FMA HasSrc = false, want true")
	}
}

func TestInstrString(t *testing.T) {
	in := MakeFMA(4, 1, 2, 3)
	if got, want := in.String(), "FMA R4, R1, R2, R3"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	bar := MakeBar()
	if got, want := bar.String(), "BAR"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMakeHelpers(t *testing.T) {
	ld := MakeLoad(OpLDG, 5, 2, MemTrait{Pattern: PatCoalesced, Footprint: 1024})
	if ld.Dst != 5 || ld.Srcs[0] != 2 || ld.Mem.Pattern != PatCoalesced {
		t.Errorf("MakeLoad produced %+v", ld)
	}
	st := MakeStore(OpSTG, 2, 7, MemTrait{Pattern: PatCoalesced})
	if st.Dst.Valid() {
		t.Error("store must not write a register")
	}
	if st.Srcs[0] != 2 || st.Srcs[1] != 7 {
		t.Errorf("MakeStore sources = %v", st.Srcs)
	}
	mv := Make1(OpMOV, 1, 2)
	if mv.NumSrcs() != 1 {
		t.Errorf("Make1 NumSrcs = %d", mv.NumSrcs())
	}
}

func TestLatencyPositive(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.Latency() < 1 {
			t.Errorf("%v.Latency() = %d, want >= 1", op, op.Latency())
		}
	}
}

func TestInitiationInterval(t *testing.T) {
	cases := []struct{ lanes, want int }{
		{32, 1}, {16, 2}, {8, 4}, {4, 8}, {64, 1}, {1, 32}, {3, 11},
	}
	for _, c := range cases {
		if got := InitiationInterval(c.lanes); got != c.want {
			t.Errorf("InitiationInterval(%d) = %d, want %d", c.lanes, got, c.want)
		}
	}
}

func TestInitiationIntervalProperty(t *testing.T) {
	// Property: lanes * II >= WarpSize, and (lanes)*(II-1) < WarpSize for
	// all positive lane counts — the interval is the exact ceiling.
	f := func(lanes uint8) bool {
		l := int(lanes%64) + 1
		ii := InitiationInterval(l)
		return l*ii >= WarpSize && l*(ii-1) < WarpSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegValid(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg must be invalid")
	}
	if !Reg(0).Valid() {
		t.Error("R0 must be valid")
	}
}
