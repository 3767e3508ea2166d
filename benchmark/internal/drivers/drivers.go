// Package drivers times single simulator layers from outside, through
// their exported APIs, on inputs taken from a workload's own kernels: the
// SM pipeline (smcore), the operand collector (regfile), the memory
// hierarchy (mem) and the warp schedulers (core). Each driver steps its
// layer in batches and reads the clock once per batch, so the clock reads
// stay a small share of the time measured.
//
// Every stepping loop is a range over a fixed count: the drivers are
// cycle-capped by construction and need no gpu.Monitor.
package drivers

import (
	"fmt"
	"time"

	"repro/benchmark/internal/span"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/regfile"
	"repro/internal/smcore"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// PerOp is a batch-timed cost: total time over total operations.
type PerOp struct {
	time time.Duration
	ops  int64
}

func (p *PerOp) add(d time.Duration, n int) { p.time += d; p.ops += int64(n) }

// NS is the mean cost of one operation in nanoseconds, 0 when the driver
// never ran the operation (the workload does not exercise it).
func (p PerOp) NS() float64 {
	if p.ops == 0 {
		return 0
	}
	return float64(p.time.Nanoseconds()) / float64(p.ops)
}

// sink keeps the compiler from discarding pure calls under measurement.
var sink int64

// timed runs fn between two clock reads, records the interval as a span
// under parent, and returns its duration.
func timed(rec *span.Recorder, name string, parent span.ID, fn func()) time.Duration {
	start := time.Now()
	fn()
	dur := time.Since(start)
	rec.Add(name, parent, 0, start, dur)
	return dur
}

// SMCoreResult is the smcore driver's account.
type SMCoreResult struct {
	// Tick is SM.Tick over every stepped cycle; IdleTick over the batches
	// in which nothing issued, plus ticks of the drained machine.
	Tick, IdleTick PerOp
	// NextEvent is SM.NextEvent probed after idle batches.
	NextEvent PerOp
}

const (
	tickBatch    = 16  // cycles per clock read pair
	probeBatch   = 32  // NextEvent calls per clock read pair
	drainBatches = 256 // batches ticked on the machine once it has drained
)

// SMCore steps one smcore.SM over one mem.Hierarchy through its share of
// each app's first kernel — every NumSMs-th block, what one SM of the
// device receives. Blocks are placed whenever the SM accepts them and the
// SM ticks every cycle until the app's share of capCycles runs out; once
// it has drained, drainBatches more batches tick it empty — the floor an
// idle cycle costs. NextEvent is probed after every batch that issued
// nothing. Unlike gpu's run loop the driver never skips: idle cycles are
// ticked, which is what prices them.
func SMCore(rec *span.Recorder, cfg config.GPU, apps []workloads.App, capCycles int) (SMCoreResult, error) {
	var res SMCoreResult
	root := rec.Begin("smcore.driver", span.None, 0)
	defer rec.End(root)
	stride := cfg.NumSMs
	cfg.NumSMs = 1
	share := capCycles / len(apps)
	for _, app := range apps {
		hier := mem.NewHierarchy(cfg)
		run := stats.NewRun(1, cfg.SubCoresPerSM)
		sm := smcore.NewSM(0, &cfg, hier, run)
		k := app.Kernels[0]
		if err := k.Validate(&cfg); err != nil {
			return res, err
		}
		next, now, drained := 0, int64(0), 0
		for range share / tickBatch {
			for next < k.Blocks {
				spec := blockSpec(k, next)
				if !sm.CanAccept(spec) {
					break
				}
				if err := sm.Allocate(spec); err != nil {
					return res, fmt.Errorf("smcore driver: %s: %w", app.Name, err)
				}
				next += stride
			}
			before := run.Instructions
			d := timed(rec, "smcore.tick_batch", root, func() { tickSM(sm, now, tickBatch) })
			now += tickBatch
			res.Tick.add(d, tickBatch)
			if run.Instructions == before {
				res.IdleTick.add(d, tickBatch)
				d = timed(rec, "smcore.next_event_batch", root, func() { probeSM(sm, now, probeBatch) })
				res.NextEvent.add(d, probeBatch)
			}
			if next >= k.Blocks && sm.Drained() {
				if drained++; drained == drainBatches {
					break
				}
			}
		}
	}
	return res, nil
}

func tickSM(sm *smcore.SM, now int64, n int) {
	for i := range n {
		sm.Tick(now + int64(i))
	}
}

func probeSM(sm *smcore.SM, now int64, n int) {
	for range n {
		sink += sm.NextEvent(now)
	}
}

func blockSpec(k *gpu.Kernel, b int) *smcore.BlockSpec {
	progs := make([]*program.Program, k.WarpsPerBlock)
	for w := range progs {
		progs[w] = k.WarpProgram(b, w)
	}
	return &smcore.BlockSpec{
		KernelBlockID:  b,
		Programs:       progs,
		RegsPerThread:  k.RegsPerThread,
		SharedMemBytes: k.SharedMemPerBlock,
		FirstWarpGID:   int64(b) * int64(k.WarpsPerBlock),
	}
}

// Regfile drives one regfile.Collector with the register operands of the
// apps' instruction streams: sixteen warp slots take turns allocating
// their next instruction into a free collector unit, every dispatched
// instruction's destination comes back as a writeback on the next cycle,
// and the collector ticks once per cycle. Allocate is inside the timed
// batch, as it is inside the issue stage.
func Regfile(rec *span.Recorder, cfg config.GPU, apps []workloads.App, ticks int) PerOp {
	var res PerOp
	root := rec.Begin("regfile.driver", span.None, 0)
	defer rec.End(root)
	const slots, batch = 16, 64
	banks := cfg.BanksPerSubCore
	share := ticks / len(apps)
	for _, app := range apps {
		var st stats.SubCore
		coll := regfile.NewCollector(cfg.CollectorUnitsPerSubCore, banks, cfg.RBAScoreLatency, &st)
		k := app.Kernels[0]
		var cur [slots]program.Cursor
		var off [slots]int
		for s := range cur {
			cur[s] = k.WarpProgram(s/k.WarpsPerBlock%k.Blocks, s%k.WarpsPerBlock).Cursor()
			off[s] = regfile.SlotOffset(s, cfg.BankSwizzle)
		}
		var wb []regfile.WriteReq
		dispatch := func(cu *regfile.CollectorUnit) bool {
			if d := cu.Instr.Dst; d.Valid() {
				wb = append(wb, regfile.WriteReq{WarpIdx: cu.WarpIdx, Reg: d,
					Bank: int8(regfile.BankWithOffset(off[cu.SchedSlot], d, banks))})
			}
			return true
		}
		slot := 0
		step := func() {
			for _, w := range wb {
				coll.EnqueueWrite(w)
			}
			wb = wb[:0]
			if cu := coll.FreeCU(); cu >= 0 {
				if in, ok := nextWithSources(&cur[slot]); ok {
					coll.Allocate(cu, int32(slot), int32(slot), in, off[slot], false)
				}
				slot = (slot + 1) % slots
			}
			coll.Tick(dispatch)
		}
		for range share / batch {
			d := timed(rec, "regfile.tick_batch", root, func() {
				for range batch {
					step()
				}
			})
			res.add(d, batch)
		}
	}
	return res
}

// nextWithSources advances to the stream's next instruction that reads a
// register: the only kind the issue stage sends through the collector.
func nextWithSources(c *program.Cursor) (isa.Instr, bool) {
	for {
		in, ok := c.Next()
		if !ok || in.HasSrc() {
			return in, ok
		}
	}
}

// MemResult is the mem driver's account.
type MemResult struct {
	// Access is Hierarchy.AccessGlobal per line transaction; NextEvent is
	// Hierarchy.NextEvent probed with the replay's misses outstanding.
	Access, NextEvent PerOp
	// L2HitPct is the replay's L2 hit rate, 0 when nothing reached L2.
	L2HitPct float64
}

// access is one global-memory instruction of a replayed stream.
type access struct {
	trait isa.MemTrait
	write bool
}

// globalAccesses lists the global loads and stores of one pass through
// the warp program's loop bodies.
func globalAccesses(p *program.Program) []access {
	var out []access
	for _, seg := range p.Segments() {
		for _, in := range seg.Body {
			if in.Op.SpaceOf() == isa.SpaceGlobal {
				out = append(out, access{in.Mem, in.Op == isa.OpSTG})
			}
		}
	}
	return out
}

// Mem replays each app's global-memory instructions against a fresh
// mem.Hierarchy the way the LSU would issue them: 64 warps over the
// device's SMs, each access expanded into its line transactions with the
// LSU's addressing scheme. The replay is a closed loop, like warps
// blocked on their loads: every warp issues one round of its accesses,
// then the driver follows NextEvent from wake-up to wake-up — the chain
// the run loop's fast-forward follows, with that round's misses
// outstanding — until the memory system is quiet, and only then issues
// the next round. Apps without global accesses contribute nothing: the
// layer is not exercised by them.
func Mem(rec *span.Recorder, cfg config.GPU, apps []workloads.App, lines int) MemResult {
	var res MemResult
	root := rec.Begin("mem.driver", span.None, 0)
	defer rec.End(root)
	const warps, maxHops = 64, 4096
	share := lines / len(apps)
	var l2hit, l2all int64
	for _, app := range apps {
		accs := globalAccesses(app.Kernels[0].WarpProgram(0, 0))
		if len(accs) == 0 {
			continue
		}
		h := mem.NewHierarchy(cfg)
		var rng, count [warps]uint64
		for w := range rng {
			rng[w] = uint64(w)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		}
		now, done := int64(0), 0
		round := func() {
			for w := range warps {
				for _, a := range accs {
					n := mem.Transactions(a.trait, cfg.LineBytes)
					first := lineIndex(a.trait, &rng[w], count[w])
					count[w]++
					for i := range n {
						sink += h.AccessGlobal(w%cfg.NumSMs, lineAddr(a.trait, cfg.LineBytes, w, first+uint64(i)), a.write, now+int64(i))
					}
					now += int64(n)
					done += n
				}
			}
		}
		chase := func() int {
			for i := range maxHops {
				e := h.NextEvent(now)
				if e == mem.NeverCycle {
					return i + 1
				}
				now = e
			}
			return maxHops
		}
		for done < share {
			before := done
			d := timed(rec, "mem.access_batch", root, round)
			res.Access.add(d, done-before)
			var probes int
			d = timed(rec, "mem.next_event_batch", root, func() { probes = chase() })
			res.NextEvent.add(d, probes)
		}
		l2 := h.L2Cache()
		l2hit += l2.Hits
		l2all += l2.Hits + l2.Misses
	}
	if l2all > 0 {
		res.L2HitPct = 100 * float64(l2hit) / float64(l2all)
	}
	return res
}

// lineIndex and lineAddr reproduce the LSU's address synthesis (see
// smcore's LSU.address): a kernel-shared footprint at one base, private
// footprints 16 MB apart per warp, random patterns drawing from the
// warp's xorshift stream and the rest walking consecutive lines.
func lineIndex(t isa.MemTrait, rng *uint64, count uint64) uint64 {
	if t.Pattern != isa.PatRandom {
		return count
	}
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	return x
}

func lineAddr(t isa.MemTrait, lineBytes, warp int, idx uint64) uint64 {
	line := uint64(lineBytes)
	lines := uint64(t.Footprint) / line
	if lines == 0 {
		lines = 1
	}
	base := uint64(1) << 40
	if !t.Shared {
		base = (uint64(warp) + 1) << 24
	}
	return base + idx%lines*line
}

// CoreResult is the core driver's account.
type CoreResult struct {
	// Pick is WarpScheduler.Pick over 16 candidates, GTO and RBA in equal
	// parts; Score is core.Score on a three-source instruction.
	Pick, Score PerOp
}

// Core times the warp schedulers' Pick on a full sub-core's worth of
// candidates (16), GTO and RBA alike, and the RBA Score function on the
// apps' first three-source instruction.
func Core(rec *span.Recorder, cfg config.GPU, apps []workloads.App, picks int) CoreResult {
	var res CoreResult
	root := rec.Begin("core.driver", span.None, 0)
	defer rec.End(root)
	const ncand, batch = 16, 1024
	var cands [ncand]core.Candidate
	for i := range cands {
		// Ages out of slot order and a spread of scores, so neither policy
		// finds its winner in the first slot every time.
		cands[i] = core.Candidate{Slot: i, Age: int64((i*7 + 3) % ncand), Score: (i * 5) % 7}
	}
	for _, p := range []config.WarpSched{config.SchedGTO, config.SchedRBA} {
		s := core.NewWarpScheduler(p)
		for range picks / 2 / batch {
			d := timed(rec, "core.pick_batch", root, func() {
				for i := range batch {
					// Rotating the greedy slot makes GTO alternate between its
					// early-out and its oldest-first scan.
					s.NotifyIssued((i * 3) % (ncand + 4))
					sink += int64(s.Pick(cands[:]))
				}
			})
			res.Pick.add(d, batch)
		}
	}
	in := isa.MakeFMA(4, 5, 6, 7)
	for _, app := range apps {
		c := app.Kernels[0].WarpProgram(0, 0).Cursor()
		for i, ok := c.Next(); ok; i, ok = c.Next() {
			if i.NumSrcs() == 3 {
				in = i
				break
			}
		}
	}
	banks := cfg.BanksPerSubCore
	qlen := make([]int, banks)
	for b := range qlen {
		qlen[b] = b + 1
	}
	bankOf := func(r isa.Reg) int { return regfile.BankWithOffset(3, r, banks) }
	queueLen := func(b int) int { return qlen[b] }
	for range picks / batch {
		d := timed(rec, "core.score_batch", root, func() {
			for range batch {
				sink += int64(core.Score(&in, bankOf, queueLen))
			}
		})
		res.Score.add(d, batch)
	}
	return res
}
