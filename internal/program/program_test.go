package program

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestNewRejectsBadSegments(t *testing.T) {
	if _, err := New(Segment{Body: nil, Trips: 1}); err == nil {
		t.Error("empty body accepted")
	}
	if _, err := New(Segment{Body: []isa.Instr{isa.MakeBar()}, Trips: 0}); err == nil {
		t.Error("zero trips accepted")
	}
}

func TestCursorWalksExpandedStream(t *testing.T) {
	p, err := New(
		Segment{Body: []isa.Instr{isa.MakeFMA(1, 2, 3, 4), isa.Make2(isa.OpFADD, 5, 1, 1)}, Trips: 3},
		Segment{Body: []isa.Instr{isa.MakeExit()}, Trips: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
	c := p.Cursor()
	var ops []isa.Op
	for {
		in, ok := c.Next()
		if !ok {
			break
		}
		ops = append(ops, in.Op)
	}
	want := []isa.Op{isa.OpFMA, isa.OpFADD, isa.OpFMA, isa.OpFADD, isa.OpFMA, isa.OpFADD, isa.OpEXIT}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i := range ops {
		if ops[i] != want[i] {
			t.Errorf("op[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
	if c.Left() != 0 {
		t.Errorf("Left = %d at the end, want 0", c.Left())
	}
	if c.fetched != p.Len() {
		t.Errorf("fetched = %d, want %d", c.fetched, p.Len())
	}
}

func TestZeroCursorIsExhausted(t *testing.T) {
	var c Cursor
	if c.Left() != 0 {
		t.Error("zero cursor must be exhausted")
	}
	if _, ok := c.Next(); ok {
		t.Error("zero cursor returned an instruction")
	}
}

func TestBuilderStraightLine(t *testing.T) {
	p := NewBuilder().
		FMA(4, 1, 2, 3).
		FADD(5, 4, 4).
		Exit().
		MustBuild()
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func TestBuilderAppendsExit(t *testing.T) {
	p := NewBuilder().FMA(4, 1, 2, 3).MustBuild()
	c := p.Cursor()
	var last isa.Instr
	for {
		in, ok := c.Next()
		if !ok {
			break
		}
		last = in
	}
	if last.Op != isa.OpEXIT {
		t.Errorf("last op = %v, want EXIT", last.Op)
	}
}

func TestBuilderLoop(t *testing.T) {
	p := NewBuilder().
		MOV(1, 0).
		Loop(100, func(b *Builder) {
			b.FMA(2, 1, 1, 2)
		}).
		Exit().
		MustBuild()
	// 1 MOV + 100 FMA + 1 EXIT
	if p.Len() != 102 {
		t.Fatalf("Len = %d, want 102", p.Len())
	}
	if len(p.Segments()) != 3 {
		t.Fatalf("segments = %d, want 3", len(p.Segments()))
	}
}

func TestBuilderNestedLoopExpands(t *testing.T) {
	p := NewBuilder().
		Loop(3, func(b *Builder) {
			b.IADD(1, 1, 2)
			b.Loop(5, func(b2 *Builder) { b2.FMA(3, 1, 1, 3) })
		}).
		MustBuild()
	// 3 * (1 IADD + 5 FMA) + EXIT = 18 + 1
	if p.Len() != 19 {
		t.Fatalf("Len = %d, want 19", p.Len())
	}
}

func TestBuilderLoopErrors(t *testing.T) {
	if _, err := NewBuilder().Loop(0, func(b *Builder) { b.Bar() }).Build(); err == nil {
		t.Error("zero-trip loop accepted")
	}
	if _, err := NewBuilder().Loop(2, func(b *Builder) {}).Build(); err == nil {
		t.Error("empty loop body accepted")
	}
}

// Property: for any random segment structure, the cursor yields exactly
// Len() instructions and its fetched count (a frame's Pos.Fetched) stays
// consistent at every step.
func TestCursorCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nseg := 1 + r.Intn(5)
		segs := make([]Segment, 0, nseg)
		for i := 0; i < nseg; i++ {
			bodyLen := 1 + r.Intn(4)
			body := make([]isa.Instr, bodyLen)
			for j := range body {
				body[j] = isa.MakeFMA(isa.Reg(r.Intn(16)), 1, 2, 3)
			}
			segs = append(segs, Segment{Body: body, Trips: int64(1 + r.Intn(7))})
		}
		p, err := New(segs...)
		if err != nil {
			return false
		}
		c := p.Cursor()
		var n int64
		for {
			if c.fetched != n {
				return false
			}
			if _, ok := c.Next(); !ok {
				break
			}
			n++
		}
		return n == p.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
