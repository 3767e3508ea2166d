package gpu

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snapshot"
)

// snapApp is a three-kernel application exercising every state family a
// snapshot must carry: global/shared/const memory in flight, barriers,
// FMA chains, multiple blocks per SM.
func snapApp() []*Kernel {
	memB := program.NewBuilder()
	memB.Loop(48, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 20, StrideBytes: 4})
		lb.FMA(5, 4, 4, 5)
		lb.LDS(6, 5, isa.MemTrait{Footprint: 1 << 12, StrideBytes: 4})
		lb.FMA(7, 6, 6, 7)
	})
	memP := memB.MustBuild()
	barP := fmaThenBarProgram(64, 2)
	fmaP := fmaProgram(128, 2)
	return []*Kernel{
		{Name: "mem", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return memP }},
		{Name: "bar", Blocks: 2, WarpsPerBlock: 16, RegsPerThread: 16, SharedMemPerBlock: 4096,
			WarpProgram: func(b, w int) *program.Program { return barP }},
		{Name: "fma", Blocks: 3, WarpsPerBlock: 8, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return fmaP }},
	}
}

// runJSON canonicalizes a run's statistics for byte-equality checks.
func runJSON(t *testing.T, g *GPU) []byte {
	t.Helper()
	j, err := json.Marshal(g.Run())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// captureAt arms a snapshot hook that serializes the device at the first
// heartbeat at or past the target cycle.
func captureAt(g *GPU, target int64) *[]byte {
	var snap []byte
	g.SetSnapshotHook(func(g *GPU) error {
		if snap != nil || g.Cycle() < target {
			return nil
		}
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			return err
		}
		snap = buf.Bytes()
		return nil
	})
	return &snap
}

// barrierApp is barrier-heavy: every trip of every warp ends in a block-wide
// barrier, the warps of a block do uneven work before it (so arrivals spread
// over time and across sub-cores), and a quarter of them exit at once and
// sit finished in their slots while the rest keep meeting.
func barrierApp() []*Kernel {
	progs := make([]*program.Program, 4)
	for i := range progs {
		b := program.NewBuilder()
		if i < 3 {
			b.Loop(120, func(lb *program.Builder) {
				for j := 0; j <= 3*i; j++ {
					lb.FMA(isa.Reg(4+j%4), isa.Reg(4+j%4), 1, 2)
				}
				lb.LDS(9, 4, isa.MemTrait{Footprint: 1 << 12, StrideBytes: 4})
				lb.Bar()
			})
		}
		progs[i] = b.MustBuild()
	}
	return []*Kernel{{Name: "barrier", Blocks: 10, WarpsPerBlock: 16, RegsPerThread: 16, SharedMemPerBlock: 8192,
		WarpProgram: func(b, w int) *program.Program { return progs[(b+w)%4] }}}
}

// frameOf serializes the device as it stands.
func frameOf(t *testing.T, g *GPU) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resumeInert cuts the application at every heartbeat and proves each
// restore-then-run byte-identical to the uninterrupted run — in its
// statistics and in the frame the drained device encodes to. The second
// comparison is what stands in for a field ledger: whatever the run mutates
// and a later cycle depends on must either be in a state struct (then a
// resumed device ends with the same bytes) or be rebuilt on restore (then
// it ends with the same statistics); a mutable field that is neither makes
// some cut diverge.
func resumeInert(t *testing.T, cfg config.GPU, ks []*Kernel) {
	t.Helper()
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}
	want, wantFrame := runJSON(t, plain), frameOf(t, plain)

	interrupted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]byte
	interrupted.SetSnapshotHook(func(g *GPU) error {
		cuts = append(cuts, frameOf(t, g))
		return nil
	})
	if err := interrupted.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 4 {
		t.Fatalf("only %d heartbeats in %d cycles; the app is too short to cut", len(cuts), interrupted.Cycle())
	}
	// The interrupted run, left to finish, must itself be unperturbed by
	// the snapshot hook.
	if !bytes.Equal(runJSON(t, interrupted), want) || !bytes.Equal(frameOf(t, interrupted), wantFrame) {
		t.Fatal("taking snapshots perturbed the run")
	}

	for i, cut := range cuts {
		resumed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(bytes.NewReader(cut), ks); err != nil {
			t.Fatalf("cut %d: Restore: %v", i, err)
		}
		at := resumed.Cycle()
		if vs := resumed.AuditCheck(); len(vs) != 0 {
			t.Fatalf("cut at cycle %d: audit violations on the restored device: %v", at, vs)
		}
		if err := resumed.ContinueKernels(ks, 0); err != nil {
			t.Fatalf("cut at cycle %d: ContinueKernels: %v", at, err)
		}
		if got := runJSON(t, resumed); !bytes.Equal(got, want) {
			t.Fatalf("cut at cycle %d: resumed run diverged from uninterrupted run\nwant %s\ngot  %s", at, want, got)
		}
		if !bytes.Equal(frameOf(t, resumed), wantFrame) {
			t.Fatalf("cut at cycle %d: statistics match, but the drained device encodes to a different frame", at)
		}
	}
	t.Logf("%d cuts over %d cycles", len(cuts), interrupted.Cycle())
}

func TestSnapshotResumeInert(t *testing.T) {
	base := config.VoltaV100()
	base.NumSMs = 2
	// The apps fit in far less; a full 6 MB L2 only makes each of the
	// hundred-odd frames slower to encode.
	base.L2KB = 384
	rba := base.WithScheduler(config.SchedRBA).WithBankStealing()
	for _, tc := range []struct {
		name string
		cfg  config.GPU
	}{
		{"gto", base},
		{"rba-stealing", rba},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("mem-mix", func(t *testing.T) { resumeInert(t, tc.cfg, snapApp()) })
			t.Run("barrier", func(t *testing.T) { resumeInert(t, tc.cfg, barrierApp()) })
		})
	}
}

func TestSnapshotResumeConcurrentBatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	ks := snapApp()

	golden, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.RunConcurrent(ks, 0); err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, golden)

	interrupted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := captureAt(interrupted, 1)
	if err := interrupted.RunConcurrent(ks, 0); err != nil {
		t.Fatal(err)
	}
	if *snap == nil {
		t.Fatal("no snapshot captured")
	}

	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(bytes.NewReader(*snap), ks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := resumed.ContinueKernels(ks, 0); err != nil {
		t.Fatalf("ContinueKernels: %v", err)
	}
	if got := runJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed concurrent batch diverged from uninterrupted run")
	}
}

func TestSnapshotRejectsConfigMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	ks := snapApp()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := captureAt(g, 1)
	if err := g.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}

	other := cfg.WithSMs(4)
	h, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Restore(bytes.NewReader(*snap), ks); err == nil {
		t.Fatal("restore into a different configuration succeeded")
	}
}

// TestRestoreKeepsStatsIdentity: every SM counts into &run.SMs[i] and its
// SubCores, pointers taken when the device was built, so Restore must
// overwrite the statistics where they lie (snap:"fixed" on both slices). The
// resume-identity tests would fail on a Restore that reallocated either; this
// one says which invariant broke.
func TestRestoreKeepsStatsIdentity(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	ks := snapApp()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := captureAt(g, 2048)
	if err := g.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}

	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := h.Run()
	sm1, sub := &run.SMs[1], &run.SMs[1].SubCores[3]
	if err := h.Restore(bytes.NewReader(*snap), ks); err != nil {
		t.Fatal(err)
	}
	if h.Run() != run || &h.Run().SMs[1] != sm1 || &h.Run().SMs[1].SubCores[3] != sub {
		t.Fatal("Restore moved the statistics the SMs hold pointers into")
	}
	issued, blocks, kernels := sub.Issued, sm1.BlocksCompleted, len(run.Kernels)
	if issued == 0 || run.Cycles == 0 {
		t.Fatalf("the frame at cycle %d restored no statistics (sub-core issued %d)", h.Cycle(), issued)
	}
	if err := h.ContinueKernels(ks, 0); err != nil {
		t.Fatal(err)
	}
	if sub.Issued <= issued || sm1.BlocksCompleted <= blocks || len(run.Kernels) <= kernels {
		t.Errorf("after the resume SM 1 did not keep counting into the restored statistics: issued %d -> %d, blocks %d -> %d, kernels %d -> %d",
			issued, sub.Issued, blocks, sm1.BlocksCompleted, kernels, len(run.Kernels))
	}
	if !bytes.Equal(runJSON(t, h), runJSON(t, g)) {
		t.Error("the resumed run's statistics differ from the uninterrupted run's")
	}
}

func TestSnapshotRejectsWorkloadMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	ks := snapApp()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := captureAt(g, 1)
	if err := g.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}

	// Same config, different instruction streams: cursor rebinding must
	// detect the drift rather than resume into the wrong program.
	wrong := snapApp()
	p := fmaProgram(16, 1)
	wrong[0].WarpProgram = func(b, w int) *program.Program { return p }
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Restore(bytes.NewReader(*snap), wrong); err == nil {
		t.Fatal("restore against a different workload succeeded")
	}
}

// TestAuditedRunIsCleanAndUnperturbed: a healthy run passes every law at
// every heartbeat, and auditing changes nothing. The second cell runs RBA
// with a non-default score latency, so a write to the shared configuration
// after construction (the SMs hold a pointer to it) trips the `config` law.
func TestAuditedRunIsCleanAndUnperturbed(t *testing.T) {
	base := config.VoltaV100()
	base.NumSMs = 2
	stale := base.WithScheduler(config.SchedRBA)
	stale.RBAScoreLatency = 5
	ks := snapApp()
	for _, cfg := range []config.GPU{base, stale} {
		plain, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.RunKernels(ks, 0); err != nil {
			t.Fatal(err)
		}

		audited, err := New(cfg.WithAudit(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := audited.RunKernels(ks, 0); err != nil {
			t.Fatalf("%s: audited run faulted: %v", cfg.Name, err)
		}
		if !bytes.Equal(runJSON(t, plain), runJSON(t, audited)) {
			t.Fatalf("%s: arming the auditor changed the simulation results", cfg.Name)
		}
	}
}

// TestFrameBytesUnchanged pins the frame format across the encode diet (one
// Encoder per device reused across frames, the container built around the
// payload in place): a fixed mid-kernel state and the drained device must
// hash to what the parent commit's encoder — a fresh buffer per frame, the
// container assembled by snapshot.Frame's copy — wrote for them, a second
// frame from the same, now used, Encoder must be the same bytes, and the
// container must still be snapshot.Frame's. Re-pin the hashes with any change
// that moves snapshot.Version, the frame header or the statistics a frame
// carries. (Version 7 re-pinned them for the header alone — the 16-byte
// MachineID where the configuration's 743 bytes of JSON were. Version 8
// re-pinned them for the statistics section alone: stats.Run walked like
// every other state struct, 404 and 515 bytes, where its JSON was, 3,783
// and 4,116 — 116,261 → 112,882 and 120,213 → 116,612 bytes a frame. The
// 21 and 23 bytes before that section and the 112,441 and 116,058 after it
// hashed the same on both sides of the change.)
func TestFrameBytesUnchanged(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mid, again []byte
	g.SetSnapshotHook(func(g *GPU) error {
		if mid == nil && g.Cycle() >= 4096 {
			mid, again = frameOf(t, g), frameOf(t, g)
		}
		return nil
	})
	if err := g.RunKernels(snapApp(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, again) {
		t.Error("the same state encoded twice through one Encoder gave different frames")
	}
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"mid-kernel", "1c9050053a41b5a756f4beb6b461dd62d1101dea0c68d1308ddd0318b5100ce7", mid},
		{"drained", "a43448e83f06a424d3ffb46352ffb9d4fd8100a9fe34d604e6b4a6997411b6ca", frameOf(t, g)},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.frame)); got != tc.want {
			t.Errorf("%s frame (%d bytes) hashes to %s, the parent's to %s", tc.name, len(tc.frame), got, tc.want)
		}
		payload, err := snapshot.Payload(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshot.Frame(payload), tc.frame) {
			t.Errorf("%s: the in-place container differs from snapshot.Frame's", tc.name)
		}
	}
}

// TestAuditPacedByWork: the auditor runs on the first heartbeat and then once
// per AuditEvery cycles of *work* (WorkCycles), not of device time. The launch
// is idle_latency's shape — two three-warp dependent-load blocks on four SMs,
// so at most six of sixteen sub-cores are ever awake and all of them sleep on
// DRAM most of the time — where a device-cycle cadence audits, dozens of
// times over, a state almost nothing has touched. An audit is seen from the
// snapshot hook, which runs right after it: auditNext moved.
func TestAuditPacedByWork(t *testing.T) {
	const every = 4096
	cfg := config.VoltaV100()
	cfg.NumSMs = 4
	chain := memLatencyProgram(9000)
	k := &Kernel{Name: "chains", Blocks: 2, WarpsPerBlock: 3, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return chain }}
	g, err := New(cfg.WithAudit(every))
	if err != nil {
		t.Fatal(err)
	}
	var audits, heartbeats, lastNext, firstAudit int64
	g.SetSnapshotHook(func(g *GPU) error {
		heartbeats++
		if g.auditNext != lastNext {
			if lastNext = g.auditNext; audits == 0 {
				firstAudit = heartbeats
			}
			audits++
		}
		return nil
	})
	if err := g.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	work, cycles := g.WorkCycles(), g.Cycle()
	if firstAudit != 1 {
		t.Errorf("first audit on heartbeat %d, want the first", firstAudit)
	}
	// A heartbeat spans at most monitorPeriod cycles of work, so successive
	// audits lie between every and every+monitorPeriod apart on that clock.
	if lo, hi := 1+work/(every+monitorPeriod), 1+work/every; audits < lo || audits > hi {
		t.Errorf("%d audits over %d cycles of work, want %d..%d", audits, work, lo, hi)
	}
	if work < 2*every || audits*8 > cycles/every {
		t.Errorf("%d audits, %d cycles of work, %d device cycles: the launch should cost several audits and a small fraction of one per %d device cycles",
			audits, work, cycles, every)
	}
}

func TestAuditCatchesArmedCorruption(t *testing.T) {
	for _, tc := range []struct{ kind, rule string }{
		{"scoreboard", "scoreboard"},
		{"lease", "lease"},
		{"readyset", "readyset"},
		{"mshr", "mshr"},
		{"config", "config"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			cfg := config.VoltaV100()
			cfg.NumSMs = 1
			g, err := New(cfg.WithAudit(1))
			if err != nil {
				t.Fatal(err)
			}
			g.ArmCorruptionForTest(tc.kind)
			err = g.RunKernels(snapApp(), 0)
			var ae *AuditError
			if !errors.As(err, &ae) {
				t.Fatalf("corrupted run returned %v, want *AuditError", err)
			}
			found := false
			for _, v := range ae.Violations {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q violation in %v", tc.rule, ae.Violations)
			}
			if ae.Cycle == 0 || ae.Error() == "" {
				t.Fatalf("fault lost context: %v", ae)
			}
		})
	}
}
