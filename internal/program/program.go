// Package program represents per-warp instruction streams compactly.
//
// The paper's evaluation is trace-driven (SASS traces fed to Accel-Sim).
// Storing full traces for 112 applications is impractical here, and
// unnecessary: control flow in the studied workloads is resolved before the
// back-end pipeline the paper modifies. A Program is therefore a sequence
// of Segments — straight-line instruction runs with a trip count — and a
// Cursor walks the expanded stream lazily, one instruction at a time.
package program

import (
	"fmt"

	"repro/internal/isa"
)

// Segment is a straight-line run of instructions repeated Trips times
// (a fully unrolled counted loop).
type Segment struct {
	// Body is the instruction run.
	Body []isa.Instr
	// Trips is how many times Body executes; must be >= 1.
	Trips int64
}

// Program is a warp's complete instruction stream.
type Program struct {
	segs []Segment
	n    int64 // total dynamic instruction count, cached
}

// New builds a program from segments. Segments with Trips < 1 or empty
// bodies are rejected.
func New(segs ...Segment) (*Program, error) {
	p := &Program{}
	for i, s := range segs {
		if len(s.Body) == 0 {
			return nil, fmt.Errorf("program: segment %d has empty body", i)
		}
		if s.Trips < 1 {
			return nil, fmt.Errorf("program: segment %d has trips %d, want >= 1", i, s.Trips)
		}
		p.segs = append(p.segs, s)
		p.n += int64(len(s.Body)) * s.Trips
	}
	return p, nil
}

// Len returns the total dynamic instruction count.
func (p *Program) Len() int64 { return p.n }

// Segments returns the program's segments (shared, do not mutate).
func (p *Program) Segments() []Segment { return p.segs }

// Cursor returns an iterator positioned at the first instruction.
func (p *Program) Cursor() Cursor { return Cursor{prog: p} }

// Cursor walks a Program one dynamic instruction at a time. The zero
// Cursor is exhausted; obtain one from Program.Cursor. Cursor is a small
// value and is embedded by-value in each simulated warp.
type Cursor struct {
	prog    *Program
	seg     int
	idx     int
	trip    int64
	fetched int64
}

// Next returns the next instruction and advances. ok is false once the
// stream is exhausted.
func (c *Cursor) Next() (in isa.Instr, ok bool) {
	if c.prog == nil || c.seg >= len(c.prog.segs) {
		return isa.Instr{}, false
	}
	s := &c.prog.segs[c.seg]
	in = s.Body[c.idx]
	c.fetched++
	c.idx++
	if c.idx == len(s.Body) {
		c.idx = 0
		c.trip++
		if c.trip == s.Trips {
			c.trip = 0
			c.seg++
		}
	}
	return in, true
}

// Done reports whether the stream is exhausted.
func (c *Cursor) Done() bool {
	return c.prog == nil || c.seg >= len(c.prog.segs)
}
