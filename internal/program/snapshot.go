package program

import "fmt"

// Pos is an explicit, serializable cursor position. Programs themselves
// are deterministic functions of the workload generator and are rebuilt on
// restore, so a snapshot records only where each warp's cursor stands.
type Pos struct {
	// Seg is the current segment index (== segment count when exhausted).
	Seg int
	// Idx is the instruction index within the segment body.
	Idx int
	// Trip is the completed-trip count of the current segment.
	Trip int64
	// Fetched is the total dynamic instructions consumed so far.
	Fetched int64
}

// Pos captures the cursor's position for serialization.
func (c *Cursor) Pos() Pos {
	return Pos{Seg: c.seg, Idx: c.idx, Trip: c.trip, Fetched: c.fetched}
}

// CursorAt rebuilds a cursor over p at a previously captured position,
// validating the position against this program's shape so a snapshot
// restored against the wrong workload fails loudly instead of walking out
// of bounds.
func (p *Program) CursorAt(pos Pos) (Cursor, error) {
	if pos.Seg < 0 || pos.Idx < 0 || pos.Trip < 0 || pos.Fetched < 0 {
		return Cursor{}, fmt.Errorf("program: negative cursor position %+v", pos)
	}
	if pos.Seg > len(p.segs) {
		return Cursor{}, fmt.Errorf("program: cursor segment %d beyond %d segments", pos.Seg, len(p.segs))
	}
	if pos.Seg == len(p.segs) {
		// Exhausted stream: the only valid in-segment coordinates are zero
		// and the fetch count must equal the program length.
		if pos.Idx != 0 || pos.Trip != 0 || pos.Fetched != p.n {
			return Cursor{}, fmt.Errorf("program: exhausted cursor with inconsistent position %+v (len %d)", pos, p.n)
		}
		return Cursor{prog: p, seg: pos.Seg, fetched: pos.Fetched}, nil
	}
	s := &p.segs[pos.Seg]
	if pos.Idx >= len(s.Body) {
		return Cursor{}, fmt.Errorf("program: cursor index %d beyond segment body %d", pos.Idx, len(s.Body))
	}
	if pos.Trip >= s.Trips {
		return Cursor{}, fmt.Errorf("program: cursor trip %d beyond %d trips", pos.Trip, s.Trips)
	}
	want := int64(0)
	for i := 0; i < pos.Seg; i++ {
		want += int64(len(p.segs[i].Body)) * p.segs[i].Trips
	}
	want += pos.Trip*int64(len(s.Body)) + int64(pos.Idx)
	if pos.Fetched != want {
		return Cursor{}, fmt.Errorf("program: cursor fetch count %d inconsistent with position (want %d) — snapshot does not match this workload", pos.Fetched, want)
	}
	return Cursor{prog: p, body: s.Body, seg: pos.Seg, idx: pos.Idx, trip: pos.Trip, fetched: pos.Fetched}, nil
}
