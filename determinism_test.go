package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
)

// TestDeterminism: identical (config, app, seed) runs must produce
// byte-identical statistics — the property every experiment in this
// repository relies on. Exercises Shuffle's seeded permutations and the
// warps' private PRNG streams.
func TestDeterminism(t *testing.T) {
	app, err := AppByName("cg-pgrnk") // random memory patterns + shuffle
	if err != nil {
		t.Fatal(err)
	}
	cfg := VoltaV100().WithSMs(2).WithAssign(AssignShuffle).WithScheduler(SchedRBA)
	var cycles []int64
	var conflicts []int64
	for i := 0; i < 3; i++ {
		r, err := Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, r.Cycles)
		conflicts = append(conflicts, r.TotalBankConflicts())
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] != cycles[0] || conflicts[i] != conflicts[0] {
			t.Fatalf("run %d diverged: cycles %v, conflicts %v", i, cycles, conflicts)
		}
	}
}

// TestDeterministicTelemetry: identical runs must produce byte-identical
// trace event streams and counter samples, not just identical summary
// statistics. Telemetry rides the simulation loop, so any divergence here
// means a hidden source of nondeterminism (map iteration, time, unseeded
// randomness) leaked into the hot path.
func TestDeterministicTelemetry(t *testing.T) {
	app, err := AppByName("cg-pgrnk") // stochastic: shuffle + random access
	if err != nil {
		t.Fatal(err)
	}
	capture := func() (events []trace.Event, counters *trace.Counters, chrome []byte) {
		cfg := VoltaV100().WithSMs(2).WithAssign(AssignShuffle).WithScheduler(SchedRBA)
		opt := trace.OptionsFor(&cfg, 0)
		// A ring deep enough for the whole run (~350k events on SM 0), so
		// the streams compared are complete, not tails.
		opt.RingCap, opt.SamplePeriod = 1<<19, 32
		tr := trace.New(opt)
		g, err := NewGPU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.SetTracer(tr)
		for _, k := range app.Kernels {
			if err := g.RunKernel(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		if lost := tr.Overwritten(0); lost != 0 {
			t.Fatalf("the ring lapped (%d events overwritten): raise RingCap", lost)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return tr.Events(0), tr.Counters(), buf.Bytes()
	}

	ev1, c1, chrome1 := capture()
	ev2, c2, chrome2 := capture()

	if len(ev1) == 0 {
		t.Fatal("no events captured")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		n := len(ev1)
		if len(ev2) < n {
			n = len(ev2)
		}
		for i := 0; i < n; i++ {
			if ev1[i] != ev2[i] {
				t.Fatalf("event streams diverge at %d: %+v vs %+v (lens %d, %d)",
					i, ev1[i], ev2[i], len(ev1), len(ev2))
			}
		}
		t.Fatalf("event stream lengths diverge: %d vs %d", len(ev1), len(ev2))
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("counter samples diverge between identical runs")
	}
	if !bytes.Equal(chrome1, chrome2) {
		t.Fatal("Chrome trace exports are not byte-identical")
	}
}

// TestDeterministicCheckpoint: the determinism contract must survive the
// fault-tolerance layer. Two harness-supervised runs of the same sweep
// cell — worker pool, watchdog plumbing, checkpoint writer and all —
// must stream byte-identical JSONL checkpoint records, or a resumed
// sweep would mix statistics from two distinguishable populations.
func TestDeterministicCheckpoint(t *testing.T) {
	app, err := AppByName("cg-pgrnk") // stochastic: shuffle + random access
	if err != nil {
		t.Fatal(err)
	}
	cfg := VoltaV100().WithSMs(2).WithAssign(AssignShuffle).WithScheduler(SchedRBA)
	runOnce := func(path string) []byte {
		t.Helper()
		res, err := harness.Run(context.Background(),
			[]Config{cfg}, []string{"v100-2sm-shuffle-rba"}, []App{app},
			harness.Options{Workers: 1, CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete() || res.Executed != 1 {
			t.Fatalf("sweep incomplete: executed %d, faults %v", res.Executed, res.Errs.Err())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	ck1 := runOnce(filepath.Join(dir, "a.jsonl"))
	ck2 := runOnce(filepath.Join(dir, "b.jsonl"))
	if len(ck1) == 0 {
		t.Fatal("checkpoint is empty")
	}
	if !bytes.Equal(ck1, ck2) {
		t.Fatalf("checkpoint records diverge between identical supervised runs:\n%s\nvs\n%s", ck1, ck2)
	}
}

// TestSeedChangesShuffle: a different seed must (almost surely) change a
// Shuffle run, and must never change a deterministic-policy run's
// instruction count.
func TestSeedChangesShuffle(t *testing.T) {
	app, err := AppByName("tpcU-q1")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) Config {
		c := VoltaV100().WithSMs(2).WithAssign(AssignShuffle)
		c.Seed = seed
		return c
	}
	r1, err := Run(mk(1), app)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(mk(99), app)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Instructions != r2.Instructions {
		t.Error("seed changed committed work")
	}
	if r1.Cycles == r2.Cycles {
		t.Log("note: different shuffle seeds produced identical cycles (possible but unlikely)")
	}
}
