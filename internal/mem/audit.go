package mem

import (
	"fmt"

	"repro/internal/audit"
)

// Audit re-derives the memory system's conservation laws and reports every
// breach (docs/ROBUSTNESS.md). It is read-only: in particular it inspects
// MSHR pending maps directly rather than through nextEvent, which retires.
func (h *Hierarchy) Audit() []audit.Violation {
	var vs []audit.Violation
	for i, m := range h.l1m {
		vs = m.auditInto(vs, fmt.Sprintf("l1m[%d]", i))
	}
	vs = h.l2m.auditInto(vs, "l2m")
	vs = h.l2ch.auditInto(vs, "l2ch")
	vs = h.drch.auditInto(vs, "drch")
	for i, c := range h.l1 {
		vs = c.auditInto(vs, fmt.Sprintf("l1[%d]", i))
	}
	return h.l2.auditInto(vs, "l2")
}

// auditInto checks the MSHR's next-event bound: the completion heap may
// carry stale rows (they only make its top early), but every pending fill
// must have its row — a heap whose top lies above the earliest pending
// fill, or that is empty while fills are pending, would have NextEvent
// report past a completion and insert never retire it. The min over the
// map is order-independent, so the direct iteration stays deterministic.
func (m *mshr) auditInto(vs []audit.Violation, where string) []audit.Violation {
	if len(m.pending) == 0 {
		return vs
	}
	min := NeverCycle
	//simlint:allow determinism -- min over the map is order-independent
	for _, done := range m.pending {
		if done < min {
			min = done
		}
	}
	top := NeverCycle
	if len(m.byDone) > 0 {
		top = m.byDone[0].done
	}
	if top > min {
		vs = append(vs, audit.Violationf("mshr", where,
			"completion heap top %d exceeds earliest pending fill %d across %d entries — NextEvent would overshoot a completion",
			top, min, len(m.pending)))
	}
	return vs
}

func (c *Cache) auditInto(vs []audit.Violation, where string) []audit.Violation {
	for i, tag := range c.tags {
		if tag == 0 {
			continue
		}
		set := i / c.assoc
		if int((tag-1)%uint64(c.sets)) != set {
			vs = append(vs, audit.Violationf("cache", where,
				"way %d holds line %d, which maps to set %d not set %d — tag array corrupt",
				i, tag-1, (tag-1)%uint64(c.sets), set))
		}
	}
	for i, u := range c.use {
		if u > c.clock {
			vs = append(vs, audit.Violationf("cache", where,
				"way %d LRU stamp %d is ahead of the cache clock %d", i, u, c.clock))
		}
	}
	if c.Hits < 0 || c.Misses < 0 {
		vs = append(vs, audit.Violationf("cache", where,
			"negative lookup counters hits=%d misses=%d", c.Hits, c.Misses))
	}
	return vs
}

func (ch *bwChannel) auditInto(vs []audit.Violation, where string) []audit.Violation {
	switch {
	case ch.fracPending < 0:
		vs = append(vs, audit.Violationf("channel", where, "negative fractional backlog %d", ch.fracPending))
	case ch.cycPerLine > 0 && ch.fracPending != 0:
		vs = append(vs, audit.Violationf("channel", where,
			"integral channel carries fractional backlog %d", ch.fracPending))
	case ch.fracDen > 0 && ch.fracPending >= ch.fracDen:
		vs = append(vs, audit.Violationf("channel", where,
			"fractional backlog %d not reduced below denominator %d", ch.fracPending, ch.fracDen))
	}
	return vs
}

// CorruptMSHRForTest seeds a guaranteed-detectable MSHR inconsistency (a
// pending fill with no row in the completion heap, due before every fill
// that has one) for the auditor's injected-corruption tests. Never
// call outside tests.
func (h *Hierarchy) CorruptMSHRForTest(now int64) {
	m := h.l1m[0]
	m.nextEvent(now)
	m.pending[^uint64(0)] = now
}
