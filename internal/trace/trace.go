// Package trace is the simulator's observability layer: a structured
// cycle-level event stream plus sampled counter time-series, threaded
// through the simulation hot path by internal/gpu and internal/smcore.
//
// Design constraints, in order:
//
//  1. Disabled tracing must be provably cheap. Every emission site in the
//     simulator guards on a nil handle (`if tr != nil`), so a run without
//     a tracer pays one predictable branch per site (`go run ./benchmark`
//     reports what an armed one costs, trace.enabled_overhead_pct). Emit
//     dereferences its receiver, so a missing guard is a nil panic in every
//     untraced test.
//  2. Enabled tracing must not allocate per event. Events are fixed-size
//     structs appended to per-SM ring buffers. Each ring is a flight
//     recorder: the last RingCap events survive, and the ring counts what
//     it overwrote. A caller that needs the whole stream sizes RingCap to
//     hold it and checks Overwritten is 0.
//  3. Telemetry must be deterministic: identical (config, app, seed) runs
//     produce byte-identical event streams and counter samples
//     (TestDeterministicTelemetry).
//
// Counter sampling records, every SamplePeriod cycles on one designated
// SM: resident warps, LSU queue depth, register-file read throughput,
// per-sub-core occupancy and issue rate, and per-bank arbiter queue
// depths. It is the simulator's only time-series path: Fig. 14's
// reads-per-cycle series is the RFReads column at period 1, the
// sub-core issue timeline the IssueBySub columns.
//
// Whoever builds the tracer arms the halves separately: RingCap > 0 the
// event rings, SamplePeriod > 0 the sampler. A counters-only tracer has no
// ring and hands every SM a nil handle: the simulator runs its untraced path.
//
// WriteChrome (chrome.go) exports both streams as Chrome trace-event JSON
// (SM -> process, sub-core -> thread) loadable in ui.perfetto.dev.
package trace

import (
	"fmt"

	"repro/internal/config"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KIssue: a warp instruction issued. A = op, B = scheduler slot.
	KIssue Kind = iota
	// KStall: a sub-core scheduler issued nothing this cycle. A = the
	// stats.StallReason attributed.
	KStall
	// KBankRead: a register bank granted a source-operand read.
	// A = bank, B = collector unit.
	KBankRead
	// KBankWrite: a register bank granted a writeback. A = bank.
	KBankWrite
	// KDispatch: a collected instruction left the operand collector for
	// its execution unit (or the LSU). A = op.
	KDispatch
	// KLSUAdmit: the SM-shared LSU started serving a memory instruction.
	// A = op.
	KLSUAdmit
	// KCoalesce: the LSU coalescer generated a burst of line transactions
	// for a global access. A = transaction count.
	KCoalesce
	// KWriteback: a completed instruction's result entered its bank's
	// write-port queue. A = destination register, B = bank.
	KWriteback
	// KBlockPlace: a thread block was placed on the SM. A = kernel block
	// id, B = warps in the block.
	KBlockPlace
	// KBlockRetire: a thread block retired, freeing all its resources at
	// once. A = kernel block id.
	KBlockRetire
	// KFastForward: the SM slept through a span of provably-inert cycles —
	// the device loop did not tick it — and has now charged them in bulk.
	// A = the number of cycles slept; the event's Cycle is the one the SM
	// woke or was synced at (a heartbeat, a block placement, the end of the
	// launch), so the span is [Cycle-A, Cycle). One event per traced SM per
	// slept span replaces the per-cycle KStall stream an always-ticked SM
	// would have emitted over it. With Sub ≥ 0 the sleeper is that sub-core,
	// skipped inside an SM that kept ticking (or slept less long): one event
	// per span it was not ticked, B = the stats.StallReason every cycle of
	// the span was charged to.
	KFastForward

	NumKinds
)

var kindNames = [NumKinds]string{
	"issue", "stall", "bank-read", "bank-write", "dispatch",
	"lsu-admit", "coalesce", "writeback", "block-place", "block-retire",
	"fast-forward",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured trace record. Fixed-size by design: rings hold
// events by value and emission never allocates.
type Event struct {
	// Cycle is the global GPU cycle the event occurred on.
	Cycle int64
	// Warp is the warp's index in its SM's warp table, -1 when the event
	// has no warp (block placement, pure stalls).
	Warp int32
	// A, B are kind-specific arguments (see the Kind constants).
	A, B int32
	// SM identifies the SM.
	SM int16
	// Sub identifies the sub-core, -1 for SM-level events (LSU, blocks).
	Sub int8
	// Kind classifies the event.
	Kind Kind
}

// DefaultRingCap is the per-SM event ring capacity the binaries ask for: a
// flight recorder deep enough for ~10k cycles of a busy SM.
const DefaultRingCap = 1 << 16

// Options configures a Tracer.
type Options struct {
	// SMs, SubCores, Banks describe the device topology (Banks is per
	// sub-core). Required for counter sampling and the Chrome export's
	// thread layout.
	SMs, SubCores, Banks int
	// SM selects which SM's events are recorded; -1 records every SM,
	// each in a ring of its own.
	SM int
	// RingCap is the per-SM ring capacity in events; 0 records no events
	// (no ring is allocated and ForSM returns nil for every SM). The ring
	// keeps the most recent RingCap events.
	RingCap int
	// SamplePeriod enables counter sampling every that many cycles
	// (0 disables sampling), on SM (SM 0 when every SM is traced).
	SamplePeriod int
}

// OptionsFor fills in what a configuration determines — the topology —
// for a tracer watching SM sm (-1 = all SMs). Nothing is armed: the caller
// sets RingCap and SamplePeriod to what it needs.
func OptionsFor(cfg *config.GPU, sm int) Options {
	return Options{
		SMs:      cfg.NumSMs,
		SubCores: cfg.SubCoresPerSM,
		Banks:    cfg.BanksPerSubCore,
		SM:       sm,
	}
}

// ring is one SM's event buffer.
type ring struct {
	buf  []Event
	n    int   // next write position
	laps int64 // times the buffer filled and started over
}

// Tracer is the central telemetry collector for one device run. Build
// with New and attach with gpu.SetTracer.
type Tracer struct {
	opt       Options
	now       int64
	rings     []*ring // indexed by SM id; nil = SM not traced
	handles   []SMT
	counterSM int // the SM the sampler reads: opt.SM, or 0 when every SM is traced
	counters  *Counters

	// scratch is the reused counter-snapshot buffer.
	scratch CounterSample
	// previous cumulative values for delta counters.
	lastIssued []int64
	lastReads  int64
}

// New builds a tracer. Topology fields of opt must be positive.
func New(opt Options) *Tracer {
	if opt.SMs < 1 || opt.SubCores < 1 || opt.Banks < 1 {
		panic(fmt.Sprintf("trace: invalid topology %d SMs, %d sub-cores, %d banks",
			opt.SMs, opt.SubCores, opt.Banks))
	}
	t := &Tracer{
		opt:   opt,
		rings: make([]*ring, opt.SMs),
	}
	if opt.SM >= 0 && opt.SM < opt.SMs {
		t.counterSM = opt.SM
	}
	t.handles = make([]SMT, opt.SMs)
	for i := 0; i < opt.SMs; i++ {
		if opt.RingCap <= 0 || opt.SM >= 0 && i != opt.SM {
			continue
		}
		t.rings[i] = &ring{buf: make([]Event, opt.RingCap)}
		t.handles[i] = SMT{t: t, sm: int16(i), r: t.rings[i]}
	}
	if opt.SamplePeriod > 0 {
		nb := opt.SubCores * opt.Banks
		t.counters = &Counters{
			Period:     opt.SamplePeriod,
			SM:         t.counterSM,
			IssueBySub: make([][]int32, opt.SubCores),
			OccBySub:   make([][]int32, opt.SubCores),
			QLenByBank: make([][]int32, nb),
		}
		t.lastIssued = make([]int64, opt.SubCores)
		t.scratch.IssuedBySub = make([]int64, opt.SubCores)
		t.scratch.OccBySub = make([]int32, opt.SubCores)
		t.scratch.QLenByBank = make([]int32, nb)
	}
	return t
}

// SetNow publishes the current global cycle; the device loop calls it
// once per cycle before ticking SMs so emitted events carry the cycle
// without threading it through every call site.
func (t *Tracer) SetNow(cycle int64) { t.now = cycle }

// ForSM returns the emission handle for one SM, or nil when that SM is
// not traced (or t itself is nil). Simulator components keep the handle
// and nil-check it at each emission site — the disabled fast path.
func (t *Tracer) ForSM(sm int) *SMT {
	if t == nil || sm < 0 || sm >= len(t.rings) || t.rings[sm] == nil {
		return nil
	}
	return &t.handles[sm]
}

// SMT is one SM's emission handle.
type SMT struct {
	t  *Tracer
	sm int16
	r  *ring
}

// Emit records one event. sub is -1 for SM-level events; warp is -1 when
// no warp is involved.
func (h *SMT) Emit(k Kind, sub int8, warp, a, b int32) {
	r := h.r
	r.buf[r.n] = Event{
		Cycle: h.t.now,
		Warp:  warp,
		A:     a,
		B:     b,
		SM:    h.sm,
		Sub:   sub,
		Kind:  k,
	}
	r.n++
	if r.n == len(r.buf) {
		r.laps++
		r.n = 0
	}
}

// Events returns SM sm's buffered events in chronological order: the
// full stream when it fit the ring, else the most recent RingCap events.
func (t *Tracer) Events(sm int) []Event {
	if sm < 0 || sm >= len(t.rings) || t.rings[sm] == nil {
		return nil
	}
	r := t.rings[sm]
	if r.laps == 0 {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.n:]...)
	out = append(out, r.buf[:r.n]...)
	return out
}

// Overwritten returns how many of SM sm's events the flight recorder lost
// to lapping: Events(sm) holds the last RingCap of RingCap + Overwritten(sm)
// emitted. 0 while the stream still fits the ring.
func (t *Tracer) Overwritten(sm int) int64 {
	if sm < 0 || sm >= len(t.rings) || t.rings[sm] == nil || t.rings[sm].laps == 0 {
		return 0
	}
	r := t.rings[sm]
	return (r.laps-1)*int64(len(r.buf)) + int64(r.n)
}

// TracedSMs lists the SM ids with event rings.
func (t *Tracer) TracedSMs() []int {
	var out []int
	for i, r := range t.rings {
		if r != nil {
			out = append(out, i)
		}
	}
	return out
}

// CounterSample is the per-sample snapshot a counter source fills in.
// Slices are pre-sized by the tracer and reused across samples.
type CounterSample struct {
	// Occupancy is resident warp slots on the SM (all states).
	Occupancy int32
	// LSUQueue is the SM-shared LSU input-queue depth.
	LSUQueue int32
	// RFReadsTotal is the cumulative granted register reads over all
	// sub-cores (the tracer differentiates it into a rate).
	RFReadsTotal int64
	// IssuedBySub holds cumulative issued instructions per sub-core.
	IssuedBySub []int64
	// OccBySub holds occupied warp slots per sub-core.
	OccBySub []int32
	// QLenByBank holds the arbiter read-queue depth of bank b of sub-core
	// s at index s*Banks+b.
	QLenByBank []int32
}

// CounterSource is implemented by the SM model: fill s with the current
// counter values. Cumulative fields must be monotone.
type CounterSource interface {
	TraceCounters(s *CounterSample)
}

// Counters is the sampled time-series, columnar so samples cost one
// append per column and export stays cache-friendly.
type Counters struct {
	// Period is the sampling period in cycles; SM the sampled SM.
	Period int
	SM     int
	// Cycle holds each sample's cycle number.
	Cycle []int64
	// Occupancy: resident warps. LSUQueue: LSU input-queue depth.
	Occupancy []int32
	LSUQueue  []int32
	// RFReads: register reads granted during the period (delta).
	RFReads []int32
	// IssueBySub[s]: instructions issued by sub-core s during the period.
	IssueBySub [][]int32
	// OccBySub[s]: occupied warp slots on sub-core s at the sample.
	OccBySub [][]int32
	// QLenByBank[s*Banks+b]: arbiter queue depth at the sample.
	QLenByBank [][]int32
}

// Samples returns the number of samples recorded.
func (c *Counters) Samples() int { return len(c.Cycle) }

// Counters returns the sampled series (nil when sampling is disabled).
func (t *Tracer) Counters() *Counters {
	if t == nil {
		return nil
	}
	return t.counters
}

// CounterSM returns the SM whose counters are sampled.
func (t *Tracer) CounterSM() int { return t.counterSM }

// SampleRange records the counter samples falling in cycles [from, to):
// the device loop calls it once per iteration, over the one cycle it ticked
// or the span it jumped. In a jumped span every SM sleeps, and the sampled
// fields are ones a sleep cannot change, so every sample in it sees the
// counter values a ticked loop would have observed.
func (t *Tracer) SampleRange(from, to int64, src CounterSource) {
	c := t.counters
	if c == nil {
		return
	}
	p := int64(c.Period)
	first := from + (p-from%p)%p // first multiple of p at or after from
	for cyc := first; cyc < to; cyc += p {
		t.sample(cyc, src)
	}
}

// sample records one counter sample at cycle, a multiple of the period.
func (t *Tracer) sample(cycle int64, src CounterSource) {
	c := t.counters
	s := &t.scratch
	s.Occupancy, s.LSUQueue, s.RFReadsTotal = 0, 0, 0
	src.TraceCounters(s)
	c.Cycle = append(c.Cycle, cycle)
	c.Occupancy = append(c.Occupancy, s.Occupancy)
	c.LSUQueue = append(c.LSUQueue, s.LSUQueue)
	c.RFReads = append(c.RFReads, int32(s.RFReadsTotal-t.lastReads))
	t.lastReads = s.RFReadsTotal
	for i := range c.IssueBySub {
		c.IssueBySub[i] = append(c.IssueBySub[i], int32(s.IssuedBySub[i]-t.lastIssued[i]))
		t.lastIssued[i] = s.IssuedBySub[i]
		c.OccBySub[i] = append(c.OccBySub[i], s.OccBySub[i])
	}
	for i := range c.QLenByBank {
		c.QLenByBank[i] = append(c.QLenByBank[i], s.QLenByBank[i])
	}
}
