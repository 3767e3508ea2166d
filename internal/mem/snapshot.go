package mem

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/snapshot"
)

// EncodeState serializes the memory system's mutable state: cache tag
// arrays and LRU clocks, outstanding MSHR fills, and bandwidth-channel
// occupancy. Structural shape (set counts, channel rates) derives from the
// configuration and is re-created on restore, not carried.
func (h *Hierarchy) EncodeState(e *snapshot.Encoder) {
	for i, c := range h.l1 {
		h.fills = h.l1m[i].fills(h.fills[:0])
		e.State(&c.cacheState, &h.fills)
	}
	h.fills = h.l2m.fills(h.fills[:0])
	e.State(&h.l2.cacheState, &h.fills, &h.l2ch.bwState, &h.drch.bwState)
}

// RestoreState decodes into a hierarchy freshly built from the same
// configuration; the walker checks the cache shapes, so a snapshot from a
// different machine fails loudly.
func (h *Hierarchy) RestoreState(d *snapshot.Decoder) error {
	var fills []fill
	for i, c := range h.l1 {
		d.State(&c.cacheState, &fills)
		h.l1m[i].restore(fills)
	}
	d.State(&h.l2.cacheState, &fills, &h.l2ch.bwState, &h.drch.bwState)
	h.l2m.restore(fills)
	if err := d.Err(); err != nil {
		return err
	}
	for _, ch := range []*bwChannel{h.l2ch, h.drch} {
		if ch.fracPending < 0 || (ch.fracDen > 0 && ch.fracPending >= ch.fracDen) ||
			(ch.cycPerLine > 0 && ch.fracPending != 0) {
			return fmt.Errorf("mem: snapshot channel fracPending %d out of range for this config", ch.fracPending)
		}
	}
	return nil
}

// fills appends to rows the pending fills as a frame carries them: one row per
// line, ascending, so equal MSHR states give equal bytes whatever order
// their misses arrived in. The rows are read off the completion heap —
// every pending fill has one there; stale rows and duplicates are dropped —
// because ranging over the map would visit them in no fixed order.
func (m *mshr) fills(rows []fill) []fill {
	for _, r := range m.byDone {
		if done, ok := m.pending[r.line]; ok && done == r.done {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b fill) int { return cmp.Compare(a.line, b.line) })
	return slices.Compact(rows) // same line and both live: identical rows
}

// restore replaces the MSHR's contents with decoded rows, rebuilding the
// map and the completion heap together.
func (m *mshr) restore(rows []fill) {
	m.pending = make(map[uint64]int64, len(rows))
	m.byDone = m.byDone[:0]
	for _, r := range rows {
		m.pending[r.line] = r.done
		m.byDone.push(r)
	}
}
