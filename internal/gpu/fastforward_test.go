package gpu

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// memLatencyProgram: dependent divergent global loads — long DRAM
// round-trips with nothing issuable in between, the idle-span shape the
// fast-forward path exists for.
func memLatencyProgram(n int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(n), func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 26, Divergence: 4})
		lb.FMA(5, 4, 4, 5) // consumes the load: serializes on memory
	})
	return b.MustBuild()
}

// ffDiffRun runs the same kernel on cfg with fast-forward enabled and
// disabled, each device carrying a tracer whose counter sampler — the one
// per-cycle side channel outside stats.Run — runs at the given period, and
// returns both devices and errors.
func ffDiffRun(t *testing.T, cfg config.GPU, period int, mk func() *Kernel, maxCycles int64) (fast, slow *GPU, fastErr, slowErr error) {
	t.Helper()
	run := func(c config.GPU) (*GPU, error) {
		g := tracedGPU(t, c, period)
		return g, g.RunKernel(mk(), maxCycles)
	}
	fast, fastErr = run(cfg)
	slow, slowErr = run(cfg.WithNoFastForward())
	return fast, slow, fastErr, slowErr
}

// sameCounters requires the two devices' sampled series to be equal column
// for column: Tracer.SampleRange must record over a jumped span exactly
// what its per-cycle calls would have. (The event streams differ by
// design: one KFastForward per slept span instead of a KStall per cycle.)
func sameCounters(t *testing.T, fast, slow *GPU) {
	t.Helper()
	fc, sc := fast.Tracer().Counters(), slow.Tracer().Counters()
	if fc.Samples() == 0 {
		t.Fatal("the sampler recorded nothing")
	}
	if !reflect.DeepEqual(fc, sc) {
		t.Errorf("sampled counters diverge at period %d: %d samples skipped vs %d ticked", fc.Period, fc.Samples(), sc.Samples())
	}
}

// TestFastForwardByteIdentity: the tentpole invariant. On a memory-bound
// kernel under every warp scheduler, the complete statistics object —
// cycles, CPI stacks, occupancy, bank counters — and the tracer's sampled
// counter series (per cycle, and at a period that divides neither the
// heartbeat nor the skipped spans) must be deeply identical with
// fast-forward on and off, and the fast path must actually have skipped
// cycles.
func TestFastForwardByteIdentity(t *testing.T) {
	base := config.VoltaV100()
	base.NumSMs = 2
	cfgs := []struct {
		name string
		cfg  config.GPU
	}{
		{"gto", base},
		{"lrr", base.WithScheduler(config.SchedLRR)},
		{"rba", base.WithScheduler(config.SchedRBA)},
	}
	p := memLatencyProgram(64)
	mk := func() *Kernel {
		return &Kernel{Name: "mem-idle", Blocks: 3, WarpsPerBlock: 4, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			for _, period := range []int{1, 100} {
				fast, slow, fe, se := ffDiffRun(t, tc.cfg, period, mk, 0)
				if fe != nil || se != nil {
					t.Fatalf("run errors: ff=%v off=%v", fe, se)
				}
				if fast.FastForwardedCycles() == 0 {
					t.Fatal("fast-forward never engaged on a memory-bound kernel")
				}
				if slow.FastForwardedCycles() != 0 {
					t.Fatal("NoFastForward device still skipped cycles")
				}
				if !reflect.DeepEqual(fast.Run(), slow.Run()) {
					t.Errorf("stats diverge:\n ff:  %+v\n off: %+v", fast.Run(), slow.Run())
				}
				sameCounters(t, fast, slow)
				if err := fast.Run().CheckCPI(); err != nil {
					t.Errorf("CPI stack broken after fast-forward: %v", err)
				}
			}
		})
	}
}

// TestFastForwardConcurrentIdentity: heterogeneous concurrent kernels
// keep the thread-block scheduler's pending queue live across idle
// spans; skipped placement attempts must be no-ops (failed rounds leave
// no trace) for the runs to match.
func TestFastForwardConcurrentIdentity(t *testing.T) {
	big := memLatencyProgram(48)
	small := memLatencyProgram(12)
	mks := func() []*Kernel {
		return []*Kernel{
			{Name: "big", Blocks: 4, WarpsPerBlock: 24, RegsPerThread: 16,
				WarpProgram: func(b, w int) *program.Program { return big }},
			{Name: "small", Blocks: 6, WarpsPerBlock: 8, RegsPerThread: 16,
				WarpProgram: func(b, w int) *program.Program { return small }},
		}
	}
	run := func(c config.GPU) *GPU {
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RunConcurrent(mks(), 0); err != nil {
			t.Fatal(err)
		}
		return g
	}
	fast := run(tinyCfg())
	slow := run(tinyCfg().WithNoFastForward())
	if fast.FastForwardedCycles() == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if !reflect.DeepEqual(fast.Run(), slow.Run()) {
		t.Errorf("concurrent stats diverge:\n ff:  %+v\n off: %+v", fast.Run(), slow.Run())
	}
}

// TestFastForwardMonitorHeartbeat: skips are capped at heartbeat
// boundaries, so a monitored run must publish the same heartbeat
// trajectory endpoint and identical stats whether or not the loop
// fast-forwards across multiple monitorPeriod boundaries.
func TestFastForwardMonitorHeartbeat(t *testing.T) {
	p := memLatencyProgram(256)
	mk := func() *Kernel {
		return &Kernel{Name: "beat-ff", Blocks: 1, WarpsPerBlock: 2, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	run := func(c config.GPU) (*GPU, *Monitor) {
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		mon := new(Monitor)
		g.SetMonitor(mon)
		if err := g.RunKernel(mk(), 0); err != nil {
			t.Fatal(err)
		}
		return g, mon
	}
	fast, fmon := run(tinyCfg())
	slow, smon := run(tinyCfg().WithNoFastForward())
	if fast.Run().Cycles <= 2*monitorPeriod {
		t.Fatalf("run too short (%d cycles) to cross heartbeat boundaries", fast.Run().Cycles)
	}
	if fast.FastForwardedCycles() == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if fmon.Cycle() == 0 {
		t.Error("heartbeat never advanced under fast-forward")
	}
	if fmon.Cycle() != smon.Cycle() {
		t.Errorf("final heartbeat %d (ff) != %d (off)", fmon.Cycle(), smon.Cycle())
	}
	if !reflect.DeepEqual(fast.Run(), slow.Run()) {
		t.Errorf("stats diverge across heartbeat boundaries")
	}
}

// TestFastForwardDeadlineIdentity: a skip must never jump past the cycle
// limit — CycleLimitError fires at the identical cycle, with identical
// launch progress, either way.
func TestFastForwardDeadlineIdentity(t *testing.T) {
	p := memLatencyProgram(1 << 12)
	mk := func() *Kernel {
		return &Kernel{Name: "deadline", Blocks: 2, WarpsPerBlock: 4, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	const limit = 3000
	fast, slow, fe, se := ffDiffRun(t, tinyCfg(), 100, mk, limit)
	var fcle, scle *CycleLimitError
	if !errors.As(fe, &fcle) || !errors.As(se, &scle) {
		t.Fatalf("expected CycleLimitError from both runs, got ff=%v off=%v", fe, se)
	}
	if fast.FastForwardedCycles() == 0 {
		t.Fatal("fast-forward never engaged before the deadline")
	}
	if !reflect.DeepEqual(fcle, scle) {
		t.Errorf("CycleLimitError diverges:\n ff:  %+v\n off: %+v", fcle, scle)
	}
	if fast.Run().Cycles != slow.Run().Cycles || fast.Run().Cycles != limit {
		t.Errorf("cycles at deadline: ff=%d off=%d want %d",
			fast.Run().Cycles, slow.Run().Cycles, limit)
	}
	if !reflect.DeepEqual(fast.Run(), slow.Run()) {
		t.Errorf("stats diverge at the deadline")
	}
	sameCounters(t, fast, slow)
}

// TestFastForwardArmedCancelIdentity: a cancellation armed before launch
// is observed at the first heartbeat boundary — the skip cap guarantees
// the loop stops at the same cycle the ticked loop would.
func TestFastForwardArmedCancelIdentity(t *testing.T) {
	p := memLatencyProgram(1 << 12)
	mk := func() *Kernel {
		return &Kernel{Name: "armed", Blocks: 1, WarpsPerBlock: 2, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	run := func(c config.GPU) *CancelError {
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		mon := new(Monitor)
		mon.Cancel("armed before launch")
		g.SetMonitor(mon)
		err = g.RunKernel(mk(), 0)
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("expected CancelError, got %v", err)
		}
		return ce
	}
	fce := run(tinyCfg())
	sce := run(tinyCfg().WithNoFastForward())
	if fce.Cycle != monitorPeriod {
		t.Errorf("armed cancel observed at cycle %d, want first boundary %d", fce.Cycle, monitorPeriod)
	}
	if !reflect.DeepEqual(fce, sce) {
		t.Errorf("CancelError diverges:\n ff:  %+v\n off: %+v", fce, sce)
	}
}

// twinFrame is the device's frame less the two values that differ between
// the fast-forward twins by design: the configuration (NoFastForward
// itself) and the count of cycles no SM ticked on. Like WriteSnapshot it
// wants synced SMs: it is called from the heartbeat hook and after the run.
func twinFrame(t *testing.T, g *GPU) []byte {
	t.Helper()
	e := snapshot.NewEncoder()
	e.Varint(g.cycle)
	e.Bytes(runJSON(t, g))
	if ls := g.curLaunch; ls != nil {
		e.State(&ls.launchState)
	}
	g.hier.EncodeState(e)
	for _, sm := range g.sms {
		sm.EncodeState(e)
	}
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFastForwardUnevenSMs: SMs that sleep and wake on their own clocks
// must leave the device exactly where ticking every SM every cycle does —
// in the statistics, in the sampled counters, and in the frame of every
// heartbeat (so a sleeping SM's deferred counters are charged before
// anything encodes them).
//
// "two-blocks" is idle_latency's shape: two small dependent-load blocks
// on four SMs, two of which never hold a warp and the other two asleep on
// DRAM most of the time, out of step with each other.
//
// "place-after-retire" is the cross-SM wake hazard. Each block reserves a
// whole SM's shared memory, so the grid's later blocks wait for an SM to
// retire one; chains of three lengths stagger the retirements. A block
// retires at some cycle c while every other SM sleeps on a load and the
// retiring SM itself has nothing left: nothing inside any SM has an event
// at c+1, yet the thread-block scheduler must place the next block there,
// as the ticked loop does. A loop that decides its jump before retrying
// placement puts the block on the SM late and every later cycle shifts.
func TestFastForwardUnevenSMs(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	chains := []*program.Program{memLatencyProgram(24), memLatencyProgram(40), memLatencyProgram(33)}
	for _, tc := range []struct {
		name string
		k    Kernel
	}{
		{"two-blocks", Kernel{Blocks: 2, WarpsPerBlock: 3, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return chains[(b+w)%3] }}},
		{"place-after-retire", Kernel{Blocks: 14, WarpsPerBlock: 2, RegsPerThread: 16,
			SharedMemPerBlock: cfg.SharedMemKBPerSM * 1024,
			WarpProgram:       func(b, w int) *program.Program { return chains[b%3] }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(c config.GPU) (*GPU, [][]byte) {
				g := tracedGPU(t, c, 100)
				var frames [][]byte
				g.SetSnapshotHook(func(g *GPU) error {
					frames = append(frames, twinFrame(t, g))
					return nil
				})
				k := tc.k
				k.Name = tc.name
				if err := g.RunKernel(&k, 0); err != nil {
					t.Fatal(err)
				}
				return g, append(frames, twinFrame(t, g))
			}
			fast, fastFrames := run(cfg)
			slow, slowFrames := run(cfg.WithNoFastForward())
			if ff, n := fast.FastForwardedCycles(), fast.Run().Cycles; ff*2 < n {
				t.Fatalf("only %d of %d cycles passed with every SM asleep; the kernel no longer leaves the SMs idle", ff, n)
			}
			if !reflect.DeepEqual(fast.Run(), slow.Run()) {
				t.Errorf("stats diverge:\n ff:  %+v\n off: %+v", fast.Run(), slow.Run())
			}
			sameCounters(t, fast, slow)
			if len(fastFrames) < 4 || len(fastFrames) != len(slowFrames) {
				t.Fatalf("%d heartbeat frames with fast-forward, %d without", len(fastFrames), len(slowFrames))
			}
			for i := range fastFrames {
				if !bytes.Equal(fastFrames[i], slowFrames[i]) {
					t.Fatalf("heartbeat %d of %d: the device encodes differently than its always-awake twin", i+1, len(fastFrames))
				}
			}
			// The traced SM reports each slept span once, [Cycle-A, Cycle),
			// when it ends: spans in order, none overlapping — the SM's own
			// (Sub -1) and, on its own track, each sleeping sub-core's.
			var spans [1 + 4]int
			var end [1 + 4]int64
			for _, e := range fast.Tracer().Events(0) {
				if e.Kind != trace.KFastForward {
					continue
				}
				who := 1 + e.Sub
				if from := e.Cycle - int64(e.A); e.A < 1 || from < end[who] {
					t.Fatalf("sub %d: slept span [%d,%d) overlaps the one ending at %d", e.Sub, from, e.Cycle, end[who])
				}
				spans[who], end[who] = spans[who]+1, e.Cycle
			}
			if spans[0] == 0 {
				t.Error("the traced SM slept but emitted no KFastForward event")
			}
			if spans[1]+spans[2]+spans[3]+spans[4] == 0 {
				t.Error("no sub-core of the traced SM reported a slept span")
			}
		})
	}
}

// TestOccupancyAveragesAllSMs: occupancy is sampled on every SM, not
// just SM 0. One 8-warp block on a 4-SM device occupies a single SM, so
// the device-wide mean must be at most 8/4 = 2 — the old SM-0-only
// sampling reported ~8.
func TestOccupancyAveragesAllSMs(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	p := fmaProgram(256, 2)
	k := &Kernel{Name: "occ", Blocks: 1, WarpsPerBlock: 8, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g := mustRun(t, cfg, k)
	r := g.Run()
	if r.OccupancySamples != r.Cycles*int64(cfg.NumSMs) {
		t.Fatalf("OccupancySamples = %d, want cycles x SMs = %d",
			r.OccupancySamples, r.Cycles*int64(cfg.NumSMs))
	}
	m := r.MeanOccupancy()
	if m <= 0 || m > 2.01 {
		t.Errorf("MeanOccupancy = %.2f, want (0, 2] for 8 warps on 1 of 4 SMs", m)
	}
}

// TestConcurrentNoHeadOfLineBlocking: a concurrent kernel whose next
// block fits nowhere must not starve co-scheduled kernels with smaller
// blocks. Kernel big's second 48-warp block can never place while its
// first is resident (12 of 16 slots per sub-core); all 8 of small's
// 8-warp blocks must still launch around it.
func TestConcurrentNoHeadOfLineBlocking(t *testing.T) {
	// big must be long-running but memory-bound: under GTO the older
	// resident warps get issue priority, and compute-bound ones would
	// starve the small kernel's warps at issue (a scheduler property,
	// not a placement one). Memory stalls leave issue slots for small's
	// warps to finish and free their blocks.
	longP := memLatencyProgram(1 << 14)
	shortP := fmaProgram(64, 2)
	big := &Kernel{Name: "big", Blocks: 2, WarpsPerBlock: 48, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return longP }}
	small := &Kernel{Name: "small", Blocks: 8, WarpsPerBlock: 8, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return shortP }}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	err = g.RunConcurrent([]*Kernel{big, small}, 200_000)
	var cle *CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("expected CycleLimitError (big never finishes), got %v", err)
	}
	if cle.BlocksTotal != 10 {
		t.Fatalf("BlocksTotal = %d, want 10", cle.BlocksTotal)
	}
	// big block 0 + all 8 small blocks; big block 1 stays unplaceable.
	if cle.BlocksLaunched < 9 {
		t.Errorf("BlocksLaunched = %d, want >= 9: small kernel starved behind big's unplaceable block",
			cle.BlocksLaunched)
	}
}
