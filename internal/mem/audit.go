package mem

import (
	"fmt"
	"slices"

	"repro/internal/audit"
)

// Audit re-derives the memory system's conservation laws and reports every
// breach (docs/ROBUSTNESS.md). It is read-only: in particular it inspects
// MSHR tables directly rather than through nextEvent, which retires.
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

// auditInto checks the MSHR table's probe law: every occupied slot is the
// one its line's probe stops at — reached from the home slot without
// crossing a never-used slot, and no earlier slot holding the line too —
// and used counts the occupied slots (the load that triggers a rehash, so
// that a never-used slot ends every probe).
func (m *mshr) auditInto(vs []audit.Violation, where string) []audit.Violation {
	occupied := 0
	for i, k := range m.keys {
		if k == 0 {
			continue
		}
		occupied++
		if j := m.slot(k - 1); j != i {
			vs = append(vs, audit.Violationf("mshr", where,
				"line %d sits in slot %d, but its probe stops at slot %d — a lookup misses it, or the line is held twice",
				k-1, i, j))
		}
	}
	if occupied != m.used {
		vs = append(vs, audit.Violationf("mshr", where,
			"%d occupied slots but used counts %d", occupied, m.used))
	}
	return vs
}

func (c *Cache) auditInto(vs []audit.Violation, where string) []audit.Violation {
	for i, tag := range c.tags {
		if tag == 0 {
			continue
		}
		if set, home := i/c.assoc, c.setOf(tag-1); home != set {
			vs = append(vs, audit.Violationf("cache", where,
				"way %d holds line %d, which maps to set %d not set %d — tag array corrupt",
				i, tag-1, home, set))
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
// live fill in a never-used slot that its line's probe cannot reach: the
// probe stops at another never-used slot first) for the auditor's
// injected-corruption tests. Never call outside tests.
func (h *Hierarchy) CorruptMSHRForTest() {
	m := h.l1m[0]
	slot, line := slices.Index(m.keys, 0), uint64(1<<62)
	for m.slot(line) == slot {
		line++
	}
	m.keys[slot], m.done[slot] = line+1, NeverCycle
	m.used++
}
