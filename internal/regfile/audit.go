package regfile

import "repro/internal/audit"

// Audit re-derives the collector's lease law: at each bank the pending
// normal reads are reserved for distinct cycles that fill [now, rfree[b])
// exactly, no read is granted before its unit was allocated, every
// stolen-FIFO entry names an occupied unit with an unread stolen operand at
// that bank (and every such operand has its entry), and the maintained
// summary — the busy count Tick's idle path and NextEvent trust, the
// free-unit set the issue stage allocates from, the per-bank reservations
// behind the arbiter tap, the ready and waiting masks — equals derive's
// recount. where prefixes violation
// locations (e.g. "sm0/sub1").
func (c *Collector) Audit(where string) []audit.Violation {
	var vs []audit.Violation
	want := &c.auditWant
	c.derive(want)
	if want.busy != c.busy {
		vs = append(vs, audit.Violationf("lease", where,
			"busy count %d but %d reads, writebacks and staged units are held — an idle tick would skip them", c.busy, want.busy))
	}
	if want.free != c.free {
		vs = append(vs, audit.Violationf("lease", where,
			"free-unit set %#x but the units say %#x — the issue stage would allocate an occupied unit or never see a free one", c.free, want.free))
	}
	if want.ready != c.ready || want.waiting != c.waiting {
		vs = append(vs, audit.Violationf("lease", where,
			"ready mask %#x and waiting mask %#x but the units' reads say %#x and %#x — a unit would dispatch uncollected or never",
			c.ready, c.waiting, want.ready, want.waiting))
	}
	for b, r := range want.rfree {
		if got := max(c.rfree[b], c.cycle); got != r {
			vs = append(vs, audit.Violationf("lease", where,
				"bank %d's reservations end at cycle %d but the pending reads end at %d — RBA would score against a queue that is not there", b, got, r))
		}
	}
	vs = c.auditReservations(where, vs)
	return c.auditStolen(where, vs)
}

// auditReservations checks that every operand names a bank and is granted
// no earlier than its unit's allocation, and, bank by bank, that the
// pending normal reads are reserved for distinct cycles filling [now, now+n)
// for n reads.
func (c *Collector) auditReservations(where string, vs []audit.Violation) []audit.Violation {
	for i := range c.cus {
		u := &c.cus[i]
		for j, s := range u.Instr.Srcs {
			if !u.Valid || !s.Valid() {
				continue
			}
			if b := int(u.Bank[j]); b < 0 || b >= c.banks {
				vs = append(vs, audit.Violationf("lease", where, "cu%d operand %d reads bank %d of %d", i, j, b, c.banks))
			}
			if at := u.At[j]; at < u.AllocCycle {
				vs = append(vs, audit.Violationf("lease", where,
					"cu%d operand %d granted at cycle %d, before the unit was allocated at %d", i, j, at, u.AllocCycle))
			}
		}
	}
	if n := 3 * len(c.cus); len(c.auditSeen) < n { // at most this many reads pend at one bank
		c.auditSeen = make([]bool, n)
	}
	for b := 0; b < c.banks; b++ {
		seen := c.auditSeen
		clear(seen)
		n := int64(0)
		for i := range c.cus {
			u := &c.cus[i]
			for j, s := range u.Instr.Srcs {
				at := u.At[j]
				if !u.Valid || !s.Valid() || int(u.Bank[j]) != b || at < c.cycle || at == unread {
					continue
				}
				n++
				if k := at - c.cycle; k < int64(len(seen)) {
					if seen[k] {
						vs = append(vs, audit.Violationf("lease", where,
							"bank %d has two reads reserved for cycle %d", b, at))
					}
					seen[k] = true
				}
			}
		}
		for k := range n {
			if !seen[k] {
				vs = append(vs, audit.Violationf("lease", where,
					"bank %d has %d reads pending but none reserved for cycle %d — a gap in the reservations", b, n, c.cycle+k))
				break
			}
		}
	}
	return vs
}

// auditStolen holds the stolen FIFOs to the units: per unit and bank, as
// many entries as unread operands.
func (c *Collector) auditStolen(where string, vs []audit.Violation) []audit.Violation {
	if n := len(c.cus) * c.banks; cap(c.auditRefs) < n {
		c.auditRefs = make([]int, n)
	}
	refs := c.auditRefs[:len(c.cus)*c.banks]
	clear(refs)
	for b := 0; b < c.banks; b++ {
		for _, cu := range c.stolen[b] {
			if int(cu) < 0 || int(cu) >= len(c.cus) {
				vs = append(vs, audit.Violationf("lease", where,
					"bank %d stolen read references collector unit %d of %d", b, cu, len(c.cus)))
				continue
			}
			refs[int(cu)*c.banks+b]++
		}
	}
	for i := range c.cus {
		u := &c.cus[i]
		for j, s := range u.Instr.Srcs {
			if u.Valid && s.Valid() && u.At[j] == unread {
				if b := int(u.Bank[j]); b >= 0 && b < c.banks {
					refs[i*c.banks+b]--
				}
			}
		}
		for b := 0; b < c.banks; b++ {
			if n := refs[i*c.banks+b]; n != 0 {
				vs = append(vs, audit.Violationf("lease", where,
					"cu%d (warp %d, %s) has %d more stolen reads queued at bank %d than unread operands there", i, u.WarpIdx, u.Instr.Op, n, b))
			}
		}
	}
	return vs
}

// ForEachQueuedWrite calls fn for every queued (not yet granted)
// writeback, in deterministic bank-then-FIFO order. The SM-level audit
// uses this to rebuild each warp's expected scoreboard.
func (c *Collector) ForEachQueuedWrite(fn func(WriteReq)) {
	for b := 0; b < c.banks; b++ {
		for _, w := range c.writes[b] {
			fn(w)
		}
	}
}
