package program

import (
	"testing"

	"repro/internal/isa"
)

func opsOf(p *Program) []isa.Op {
	var out []isa.Op
	c := p.Cursor()
	for {
		in, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, in.Op)
	}
}

func TestBuilderEveryEmitter(t *testing.T) {
	trait := isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 4096}
	p := NewBuilder().
		FMA(4, 1, 2, 3).
		FADD(5, 1, 2).
		IADD(7, 1, 2).
		IMAD(8, 1, 2, 3).
		MOV(11, 1).
		SFU(12, 1).
		Tensor(13, 1, 2, 3).
		LDG(14, 1, trait).
		STG(1, 14, trait).
		LDS(15, 1, isa.MemTrait{}).
		STS(1, 15, isa.MemTrait{}).
		LDC(16).
		Bar().
		MustBuild()
	want := []isa.Op{
		isa.OpFMA, isa.OpFADD, isa.OpIADD, isa.OpIMAD,
		isa.OpMOV, isa.OpSFU, isa.OpTensor, isa.OpLDG, isa.OpSTG,
		isa.OpLDS, isa.OpSTS, isa.OpLDC, isa.OpBAR, isa.OpEXIT,
	}
	got := opsOf(p)
	if len(got) != len(want) {
		t.Fatalf("ops = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBuilderLDSDefaultsPattern(t *testing.T) {
	p := NewBuilder().LDS(4, 1, isa.MemTrait{}).MustBuild()
	c := p.Cursor()
	in, _ := c.Next()
	if in.Mem.Pattern != isa.PatCoalesced {
		t.Errorf("LDS pattern = %v, want coalesced default", in.Mem.Pattern)
	}
}

func TestBuilderErrorPropagatesThroughChaining(t *testing.T) {
	b := NewBuilder().Loop(0, func(lb *Builder) { lb.Bar() })
	// Further calls must not panic and Build must fail.
	b.FMA(4, 1, 2, 3).Loop(2, func(lb *Builder) { lb.Bar() })
	if _, err := b.Build(); err == nil {
		t.Error("error did not propagate")
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder().Loop(0, func(lb *Builder) { lb.Bar() }).MustBuild()
}

func TestBuilderLoopNestedError(t *testing.T) {
	if _, err := NewBuilder().Loop(2, func(lb *Builder) {
		lb.Loop(0, func(lb2 *Builder) { lb2.Bar() })
	}).Build(); err == nil {
		t.Error("nested loop error not propagated")
	}
}
