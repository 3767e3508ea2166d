package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// smallCfg is a 2-SM device small enough for fast traced runs.
func smallCfg() config.GPU {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	cfg.DRAMBytesPerCycle /= 40
	cfg.L2BytesPerCycle /= 40
	cfg.L2KB = 256
	return cfg
}

// wholeRun is a ring deep enough for every event SM 0 emits in the runs
// below, so Events(0) is the full stream; a test that reads it asserts
// Overwritten(0) == 0.
const wholeRun = 1 << 19

// runTraced simulates app on cfg with the given tracer attached.
func runTraced(t *testing.T, cfg config.GPU, appName string, tr *trace.Tracer) {
	t.Helper()
	app, err := workloads.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.SetTracer(tr)
	for _, k := range app.Kernels {
		if err := g.RunKernel(k, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventStream: a traced run emits every event kind the pipeline can
// produce, on the traced SM only, with monotone non-negative cycles.
func TestEventStream(t *testing.T) {
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap = wholeRun
	tr := trace.New(opt)
	runTraced(t, cfg, "pb-stencil", tr)

	if lost := tr.Overwritten(0); lost != 0 {
		t.Fatalf("the ring lapped (%d events overwritten): raise wholeRun", lost)
	}
	events := tr.Events(0)
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	var seen [trace.NumKinds]int
	last := int64(-1)
	for _, e := range events {
		if e.SM != 0 {
			t.Fatalf("event from untraced SM %d", e.SM)
		}
		if e.Cycle < last && e.Kind != trace.KBlockPlace {
			// Events are per-SM in emission order; within a cycle stages
			// interleave but the cycle itself must not go backwards.
			t.Fatalf("cycle went backwards: %d after %d", e.Cycle, last)
		}
		if e.Cycle > last {
			last = e.Cycle
		}
		seen[e.Kind]++
	}
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		if k == trace.KCoalesce && seen[k] == 0 {
			continue // only global-memory apps coalesce
		}
		if seen[k] == 0 {
			t.Errorf("no %v events emitted", k)
		}
	}
	if len(tr.Events(1)) != 0 {
		t.Error("SM 1 traced despite SM filter 0")
	}
}

// TestFlightRecorder: a ring shorter than the run keeps the most recent
// RingCap events, still in chronological order.
func TestFlightRecorder(t *testing.T) {
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap = 512
	tr := trace.New(opt)
	runTraced(t, cfg, "pb-stencil", tr)

	events := tr.Events(0)
	if len(events) != 512 {
		t.Fatalf("flight recorder kept %d events, want 512", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("wrapped ring out of order at %d", i)
		}
	}
	// The tail must reach the end of the run: the last event's cycle is
	// within the final cycles of the simulation.
	if events[len(events)-1].Cycle == 0 {
		t.Error("flight recorder did not retain the run's tail")
	}
}

// TestCounterSampling: sampled series have one entry per period tick,
// with issue deltas summing to the run's issued instructions on that SM.
func TestCounterSampling(t *testing.T) {
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.SamplePeriod = 16
	tr := trace.New(opt)

	app, err := workloads.ByName("pb-stencil")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.SetTracer(tr)
	for _, k := range app.Kernels {
		if err := g.RunKernel(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := tr.Counters()
	if c == nil || c.Samples() == 0 {
		t.Fatal("no counter samples")
	}
	if got, want := c.Samples(), int(g.Run().Cycles+15)/16; got != want {
		t.Errorf("samples = %d, want %d (cycles=%d, period 16)", got, want, g.Run().Cycles)
	}
	var issued int64
	for _, sub := range c.IssueBySub {
		if len(sub) != c.Samples() {
			t.Fatalf("ragged issue series: %d vs %d samples", len(sub), c.Samples())
		}
		for _, v := range sub {
			issued += int64(v)
		}
	}
	var want int64
	sm0 := g.Run().SMs[0]
	for i := range sm0.SubCores {
		want += sm0.SubCores[i].Issued
	}
	// The last partial period after the final sample is not recorded, so
	// sampled issue may undercount by at most one period's issue.
	slack := int64(16 * cfg.SubCoresPerSM * cfg.SchedulersPerSubCore)
	if issued > want || issued < want-slack {
		t.Errorf("sampled issue %d outside [%d-%d, %d]", issued, want, slack, want)
	}
	for _, q := range c.QLenByBank {
		if len(q) != c.Samples() {
			t.Fatal("ragged bank-queue series")
		}
	}
	if len(c.RFReads) != c.Samples() || len(c.Occupancy) != c.Samples() || len(c.LSUQueue) != c.Samples() {
		t.Fatal("ragged scalar series")
	}
}

// TestNilHandle: an untraced SM yields a nil handle, and ForSM on a nil
// tracer is safe — the contract every emission site relies on.
func TestNilHandle(t *testing.T) {
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap = 64
	tr := trace.New(opt)
	if tr.ForSM(0) == nil || tr.ForSM(1) != nil {
		t.Error("want a handle for the traced SM and none for the other")
	}
	if tr.ForSM(-3) != nil || tr.ForSM(99) != nil {
		t.Error("out-of-range SM returned a handle")
	}
	var nilT *trace.Tracer
	if nilT.ForSM(0) != nil {
		t.Error("nil tracer returned a handle")
	}
	if nilT.Counters() != nil {
		t.Error("nil tracer returned counters")
	}
}

// TestKindNames: every kind has a distinct, non-empty name and
// out-of-range kinds do not panic.
func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if got := trace.Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind name = %q", got)
	}
}

// countersOf runs app on cfg under a tracer built from opt and returns its
// sampled columns.
func countersOf(t *testing.T, cfg config.GPU, app string, opt trace.Options) *trace.Counters {
	t.Helper()
	tr := trace.New(opt)
	runTraced(t, cfg, app, tr)
	return tr.Counters()
}

// TestCountersOnlyTracer: a tracer asked for counters alone allocates no
// ring and hands every SM a nil handle — the simulator runs its untraced
// path — and samples exactly what a ring-armed tracer samples, at a period
// that sees every cycle and one that divides nothing, fast-forward on and
// off.
func TestCountersOnlyTracer(t *testing.T) {
	cfg := smallCfg()
	for _, sm := range []int{0, -1} {
		opt := trace.OptionsFor(&cfg, sm)
		opt.SamplePeriod = 8
		tr := trace.New(opt)
		for i := 0; i < cfg.NumSMs; i++ {
			if tr.ForSM(i) != nil || tr.Events(i) != nil {
				t.Errorf("counters-only tracer (SM %d) traces SM %d", sm, i)
			}
		}
		if got := tr.TracedSMs(); len(got) != 0 {
			t.Errorf("counters-only tracer (SM %d) holds rings for %v", sm, got)
		}
	}
	const app = "pb-stencil"
	for _, period := range []int{1, 37} {
		var want *trace.Counters
		for _, c := range []config.GPU{cfg, cfg.WithNoFastForward()} {
			bare := trace.OptionsFor(&c, 0)
			bare.SamplePeriod = period
			ringed := bare
			ringed.RingCap = 256
			got := countersOf(t, c, app, bare)
			if got.Samples() == 0 {
				t.Fatalf("period %d: no samples", period)
			}
			if !reflect.DeepEqual(got, countersOf(t, c, app, ringed)) {
				t.Errorf("period %d (no fast-forward %v): the ring changed the sampled columns", period, c.NoFastForward)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("period %d: fast-forward changed the counters-only columns", period)
			}
		}
	}
}
