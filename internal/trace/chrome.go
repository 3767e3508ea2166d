package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/isa"
	"repro/internal/stats"
)

// Chrome trace-event export: each traced SM becomes a Perfetto process,
// each sub-core a thread, with extra threads for the register banks, the
// SM-shared LSU, and the block scheduler. Sampled counters become "C"
// (counter) events, which Perfetto renders as value tracks. One simulated
// cycle maps to one microsecond of trace time.
//
// The output is the JSON array form of the trace-event format, loadable
// directly in ui.perfetto.dev or chrome://tracing.

// Thread ids within an SM process. Sub-core s is tid s; bank b of
// sub-core s is tidBanks + s*banks + b.
const (
	tidLSU    = 90
	tidBlocks = 91
	tidBanks  = 100
)

// chromeWriter emits trace-event JSON with explicit commas so the stream
// stays a single valid array.
type chromeWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (cw *chromeWriter) event(s string) {
	if cw.err != nil {
		return
	}
	if !cw.first {
		if _, cw.err = cw.w.WriteString(",\n"); cw.err != nil {
			return
		}
	}
	cw.first = false
	_, cw.err = cw.w.WriteString(s)
}

func (cw *chromeWriter) eventf(format string, args ...interface{}) {
	cw.event(fmt.Sprintf(format, args...))
}

// meta emits a process/thread metadata record.
func (cw *chromeWriter) meta(name string, pid, tid int, value string) {
	cw.eventf(`{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
		name, pid, tid, value)
}

// WriteChrome exports a tracer's event rings and counter samples as
// Chrome trace-event JSON.
func WriteChrome(w io.Writer, t *Tracer) error {
	cw := &chromeWriter{w: bufio.NewWriterSize(w, 1<<16), first: true}
	if _, err := cw.w.WriteString("[\n"); err != nil {
		return err
	}
	banks := t.opt.Banks
	for _, sm := range t.TracedSMs() {
		cw.meta("process_name", sm, 0, fmt.Sprintf("SM %d", sm))
		if lost := t.Overwritten(sm); lost > 0 {
			// A tail, not the run: say so where the viewer shows it.
			kept := int64(t.opt.RingCap)
			cw.eventf(`{"name":"process_labels","ph":"M","pid":%d,"tid":0,"args":{"labels":"kept the last %d of %d events","overwritten":%d}}`,
				sm, kept, kept+lost, lost)
		}
		for s := 0; s < t.opt.SubCores; s++ {
			cw.meta("thread_name", sm, s, fmt.Sprintf("sub-core %d", s))
			for b := 0; b < banks; b++ {
				cw.meta("thread_name", sm, tidBanks+s*banks+b,
					fmt.Sprintf("rf bank %d.%d", s, b))
			}
		}
		cw.meta("thread_name", sm, tidLSU, "LSU")
		cw.meta("thread_name", sm, tidBlocks, "blocks")
		events := t.Events(sm)
		for i := range events {
			writeChromeEvent(cw, &events[i], banks)
		}
	}
	writeChromeCounters(cw, t.Counters())
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.w.WriteString("\n]\n"); err != nil {
		return err
	}
	return cw.w.Flush()
}

func writeChromeEvent(cw *chromeWriter, e *Event, banks int) {
	pid, ts := int(e.SM), e.Cycle
	switch e.Kind {
	case KIssue:
		cw.eventf(`{"name":%q,"cat":"issue","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d,"args":{"warp":%d,"slot":%d}}`,
			isa.Op(e.A).String(), ts, pid, e.Sub, e.Warp, e.B)
	case KStall:
		cw.eventf(`{"name":%q,"cat":"stall","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d}`,
			"stall:"+stats.StallReason(e.A).String(), ts, pid, e.Sub)
	case KBankRead:
		cw.eventf(`{"name":"read","cat":"bank","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"warp":%d,"cu":%d}}`,
			ts, pid, tidBanks+int(e.Sub)*banks+int(e.A), e.Warp, e.B)
	case KBankWrite:
		cw.eventf(`{"name":"write","cat":"bank","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"warp":%d}}`,
			ts, pid, tidBanks+int(e.Sub)*banks+int(e.A), e.Warp)
	case KDispatch:
		cw.eventf(`{"name":%q,"cat":"dispatch","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"warp":%d}}`,
			"dispatch "+isa.Op(e.A).String(), ts, pid, e.Sub, e.Warp)
	case KLSUAdmit:
		cw.eventf(`{"name":%q,"cat":"lsu","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"warp":%d,"sub":%d}}`,
			isa.Op(e.A).String(), ts, pid, tidLSU, e.Warp, e.Sub)
	case KCoalesce:
		cw.eventf(`{"name":"coalesce","cat":"lsu","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"txns":%d,"warp":%d}}`,
			ts, maxI32(e.A, 1), pid, tidLSU, e.A, e.Warp)
	case KWriteback:
		cw.eventf(`{"name":"writeback R%d","cat":"wb","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"warp":%d,"bank":%d}}`,
			e.A, ts, pid, e.Sub, e.Warp, e.B)
	case KBlockPlace:
		cw.eventf(`{"name":"place block %d","cat":"block","ph":"i","s":"p","ts":%d,"pid":%d,"tid":%d,"args":{"warps":%d}}`,
			e.A, ts, pid, tidBlocks, e.B)
	case KBlockRetire:
		cw.eventf(`{"name":"retire block %d","cat":"block","ph":"i","s":"p","ts":%d,"pid":%d,"tid":%d}`,
			e.A, ts, pid, tidBlocks)
	case KFastForward:
		// One span covering the whole slept stretch, which ends at the
		// event's cycle: in Perfetto the gaps between activity read as
		// explicit slices instead of silence. The SM's span goes on the
		// blocks track; a sub-core's on its own, named for the stall bucket
		// the per-cycle stall slices it replaces would have carried.
		tid, name := tidBlocks, "fast-forward"
		if e.Sub >= 0 {
			tid, name = int(e.Sub), "asleep:"+stats.StallReason(e.B).String()
		}
		cw.eventf(`{"name":%q,"cat":"ff","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"cycles":%d}}`,
			name, ts-int64(e.A), maxI32(e.A, 1), pid, tid, e.A)
	default:
		cw.eventf(`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d,"warp":%d}}`,
			e.Kind.String(), ts, pid, e.Sub, e.A, e.B, e.Warp)
	}
}

// writeChromeCounters emits "C" events: one occupancy/LSU/RF-reads track
// plus per-sub-core issue-rate and per-bank queue-depth tracks.
func writeChromeCounters(cw *chromeWriter, c *Counters) {
	if c == nil {
		return
	}
	pid := c.SM
	banks := 0
	if subs := len(c.IssueBySub); subs > 0 {
		banks = len(c.QLenByBank) / subs
	}
	for i, cyc := range c.Cycle {
		ts := strconv.FormatInt(cyc, 10)
		cw.eventf(`{"name":"occupancy","ph":"C","ts":%s,"pid":%d,"args":{"warps":%d}}`,
			ts, pid, c.Occupancy[i])
		cw.eventf(`{"name":"lsu-queue","ph":"C","ts":%s,"pid":%d,"args":{"depth":%d}}`,
			ts, pid, c.LSUQueue[i])
		cw.eventf(`{"name":"rf-reads","ph":"C","ts":%s,"pid":%d,"args":{"reads":%d}}`,
			ts, pid, c.RFReads[i])
		for s := range c.IssueBySub {
			cw.eventf(`{"name":"issue sub %d","ph":"C","ts":%s,"pid":%d,"args":{"issued":%d,"occ":%d}}`,
				s, ts, pid, c.IssueBySub[s][i], c.OccBySub[s][i])
		}
		for q := range c.QLenByBank {
			sub, bank := q, 0
			if banks > 0 {
				sub, bank = q/banks, q%banks
			}
			cw.eventf(`{"name":"qlen bank %d.%d","ph":"C","ts":%s,"pid":%d,"args":{"depth":%d}}`,
				sub, bank, ts, pid, c.QLenByBank[q][i])
		}
	}
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
