package regfile

import "repro/internal/audit"

// Audit re-derives the collector's lease conservation law: every occupied
// collector unit's Pending count must equal the number of queued bank
// reads that reference it, no queued read may reference a free unit, and
// the maintained summary — the busy count Tick's idle path and NextEvent
// trust, the free-unit set the issue stage allocates from, the per-bank
// normal-read counts behind the arbiter tap, the ready mask dispatch picks
// from — must equal a recount of the queues and units.
// where prefixes violation locations (e.g. "sm0/sub1").
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
	if want.ready != c.ready {
		vs = append(vs, audit.Violationf("lease", where,
			"ready mask %#x but the fully collected units are %#x — a unit would dispatch uncollected or never", c.ready, want.ready))
	}
	for b, n := range want.normal {
		if n != c.normal[b] {
			vs = append(vs, audit.Violationf("lease", where,
				"bank %d normal-read count %d but %d are queued — RBA would score against a queue that is not there", b, c.normal[b], n))
		}
	}
	// Reusable scratch: the audit runs periodically from the device
	// heartbeat and must not allocate per sweep.
	if cap(c.auditRefs) < len(c.cus) {
		c.auditRefs = make([]int, len(c.cus))
	}
	refs := c.auditRefs[:len(c.cus)]
	for i := range refs {
		refs[i] = 0
	}
	for b := 0; b < c.banks; b++ {
		for _, r := range c.queues[b] {
			if int(r.cu) < 0 || int(r.cu) >= len(c.cus) {
				vs = append(vs, audit.Violationf("lease", where,
					"bank %d read references collector unit %d of %d", b, r.cu, len(c.cus)))
				continue
			}
			refs[r.cu]++
		}
	}
	for i := range c.cus {
		u := &c.cus[i]
		switch {
		case !u.Valid && refs[i] > 0:
			vs = append(vs, audit.Violationf("lease", where,
				"cu%d is free but %d bank reads still reference it", i, refs[i]))
		case u.Valid && int(u.Pending) != refs[i]:
			vs = append(vs, audit.Violationf("lease", where,
				"cu%d (warp %d, %s) pending=%d but %d bank reads reference it",
				i, u.WarpIdx, u.Instr.Op, u.Pending, refs[i]))
		case u.Valid && u.Pending < 0:
			vs = append(vs, audit.Violationf("lease", where,
				"cu%d pending count %d negative", i, u.Pending))
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
