package mem

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/audit"
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
// different machine fails loudly. The restored hierarchy must pass its own
// Audit, or the frame is refused.
func (h *Hierarchy) RestoreState(d *snapshot.Decoder) error {
	var fills []fill
	var err error
	for i, c := range h.l1 {
		d.State(&c.cacheState, &fills)
		err = cmp.Or(err, h.l1m[i].restore(fills))
	}
	d.State(&h.l2.cacheState, &fills, &h.l2ch.bwState, &h.drch.bwState)
	if err := cmp.Or(d.Err(), err, h.l2m.restore(fills)); err != nil {
		return err
	}
	return audit.Refusal("mem", h.Audit())
}

// fills appends to rows the pending fills as a frame carries them: one row per
// line, ascending, so equal MSHR states give equal bytes whatever slots
// their misses took.
func (m *mshr) fills(rows []fill) []fill {
	for i, k := range m.keys {
		if done := m.at(i); done > 0 {
			rows = append(rows, fill{done: done, line: k - 1})
		}
	}
	slices.SortFunc(rows, func(a, b fill) int { return cmp.Compare(a.line, b.line) })
	return rows
}

// restore replaces the MSHR's contents with decoded rows. No watermark
// travels: every row is pending, and the next retirement reaches it.
func (m *mshr) restore(rows []fill) error {
	clear(m.keys)
	clear(m.done)
	m.used, m.retired, m.earlyLo = 0, 0, NeverCycle
	for _, r := range rows {
		if r.done < 1 || r.line == math.MaxUint64 {
			return fmt.Errorf("mem: snapshot MSHR row (line %d, done %d) is no fill this hierarchy can hold", r.line, r.done)
		}
		m.insert(m.slot(r.line), r.line, r.done, 0)
	}
	return nil
}
