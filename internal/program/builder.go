package program

import (
	"fmt"

	"repro/internal/isa"
)

// Builder assembles a Program imperatively. Instructions appended between
// Loop calls accumulate into straight-line segments; Loop wraps a body in a
// counted segment. Builder methods return the builder for chaining. Errors
// (registers out of range, bad trip counts) are deferred to Build.
type Builder struct {
	segs    []Segment
	pending []isa.Instr
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) track(in isa.Instr) {
	b.pending = append(b.pending, in)
}

// FMA appends d = a*b+c.
func (b *Builder) FMA(d, a, c, e isa.Reg) *Builder { b.track(isa.MakeFMA(d, a, c, e)); return b }

// FADD appends d = a+c.
func (b *Builder) FADD(d, a, c isa.Reg) *Builder { b.track(isa.Make2(isa.OpFADD, d, a, c)); return b }

// IADD appends d = a+c on the INT pipe.
func (b *Builder) IADD(d, a, c isa.Reg) *Builder { b.track(isa.Make2(isa.OpIADD, d, a, c)); return b }

// IMAD appends d = a*c+e on the INT pipe.
func (b *Builder) IMAD(d, a, c, e isa.Reg) *Builder {
	b.track(isa.Instr{Op: isa.OpIMAD, Dst: d, Srcs: [3]isa.Reg{a, c, e}})
	return b
}

// MOV appends d = a.
func (b *Builder) MOV(d, a isa.Reg) *Builder { b.track(isa.Make1(isa.OpMOV, d, a)); return b }

// SFU appends a special-function op d = f(a).
func (b *Builder) SFU(d, a isa.Reg) *Builder { b.track(isa.Make1(isa.OpSFU, d, a)); return b }

// Tensor appends an HMMA-style op d = a*c+e on the tensor core.
func (b *Builder) Tensor(d, a, c, e isa.Reg) *Builder {
	b.track(isa.Instr{Op: isa.OpTensor, Dst: d, Srcs: [3]isa.Reg{a, c, e}})
	return b
}

// LDG appends a global load into d with address register a and trait t.
func (b *Builder) LDG(d, a isa.Reg, t isa.MemTrait) *Builder {
	b.track(isa.MakeLoad(isa.OpLDG, d, a, t))
	return b
}

// STG appends a global store of v at address register a.
func (b *Builder) STG(a, v isa.Reg, t isa.MemTrait) *Builder {
	b.track(isa.MakeStore(isa.OpSTG, a, v, t))
	return b
}

// LDS appends a shared-memory load.
func (b *Builder) LDS(d, a isa.Reg, t isa.MemTrait) *Builder {
	t.Pattern = nonZeroPattern(t.Pattern)
	b.track(isa.MakeLoad(isa.OpLDS, d, a, t))
	return b
}

// STS appends a shared-memory store.
func (b *Builder) STS(a, v isa.Reg, t isa.MemTrait) *Builder {
	t.Pattern = nonZeroPattern(t.Pattern)
	b.track(isa.MakeStore(isa.OpSTS, a, v, t))
	return b
}

// LDC appends a constant-memory load (kernel argument read).
func (b *Builder) LDC(d isa.Reg) *Builder {
	b.track(isa.MakeLoad(isa.OpLDC, d, isa.NoReg, isa.MemTrait{Pattern: isa.PatBroadcast}))
	return b
}

// Bar appends a block-wide barrier.
func (b *Builder) Bar() *Builder { b.track(isa.MakeBar()); return b }

// Exit appends the warp-terminating instruction.
func (b *Builder) Exit() *Builder { b.track(isa.MakeExit()); return b }

func nonZeroPattern(p isa.Pattern) isa.Pattern {
	if p == isa.PatNone {
		return isa.PatCoalesced
	}
	return p
}

func (b *Builder) flush() {
	if len(b.pending) > 0 {
		body := make([]isa.Instr, len(b.pending))
		copy(body, b.pending)
		b.segs = append(b.segs, Segment{Body: body, Trips: 1})
		b.pending = b.pending[:0]
	}
}

// Loop emits trips repetitions of the body built by fn. The body must be
// non-empty and must not itself call Loop on a different builder level —
// nested loops are expressed by multiplying trip counts or by emitting the
// inner body multiple times.
func (b *Builder) Loop(trips int64, fn func(*Builder)) *Builder {
	if b.err != nil {
		return b
	}
	if trips < 1 {
		b.err = fmt.Errorf("program: loop trips %d, want >= 1", trips)
		return b
	}
	b.flush()
	inner := NewBuilder()
	fn(inner)
	inner.flush()
	if inner.err != nil {
		b.err = inner.err
		return b
	}
	if len(inner.segs) == 0 {
		b.err = fmt.Errorf("program: empty loop body")
		return b
	}
	if len(inner.segs) == 1 {
		s := inner.segs[0]
		s.Trips *= trips
		b.segs = append(b.segs, s)
		return b
	}
	// Multi-segment body (the inner fn used Loop): expand by repeating the
	// segment list. Trip counts in workloads are small when bodies are
	// compound, so the expansion stays compact.
	for i := int64(0); i < trips; i++ {
		b.segs = append(b.segs, inner.segs...)
	}
	return b
}

// Build finalizes the program. An Exit is appended if the program does not
// already end with one, so every warp stream terminates.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.flush()
	if n := len(b.segs); n == 0 || !endsWithExit(b.segs[n-1]) {
		b.segs = append(b.segs, Segment{Body: []isa.Instr{isa.MakeExit()}, Trips: 1})
	}
	return New(b.segs...)
}

// MustBuild is Build, panicking on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func endsWithExit(s Segment) bool {
	return s.Trips == 1 && s.Body[len(s.Body)-1].Op == isa.OpEXIT
}
