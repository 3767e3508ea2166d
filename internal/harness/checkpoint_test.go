package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func ckptPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.ckpt")
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := ckptPath(t)
	w, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appA", "gto", "fp", &stats.Run{Cycles: 100, Instructions: 400})); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appB", "rba", "fp", &stats.Run{Cycles: 200})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	done, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("loaded %d cells, want 2", len(done))
	}
	a := done[ckptKey("appA", "gto", "fp")]
	if a == nil || a.Cycles != 100 || a.Instructions != 400 {
		t.Errorf("appA/gto = %+v, want Cycles=100 Instructions=400", a)
	}
	if b := done[ckptKey("appB", "rba", "fp")]; b == nil || b.Cycles != 200 {
		t.Errorf("appB/rba = %+v, want Cycles=200", b)
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	done, err := loadCheckpoint(filepath.Join(t.TempDir(), "never-written.ckpt"))
	if err != nil {
		t.Fatalf("missing checkpoint must read as empty, got %v", err)
	}
	if len(done) != 0 {
		t.Fatalf("missing checkpoint loaded %d cells", len(done))
	}
}

// A crash mid-append leaves a torn final line; the loader must keep every
// record before it.
func TestCheckpointTornFinalLine(t *testing.T) {
	path := ckptPath(t)
	w, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appA", "gto", "fp", &stats.Run{Cycles: 100})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"app":"appB","config":"rba","run":{"Cyc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	done, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(done) != 1 || done[ckptKey("appA", "gto", "fp")] == nil {
		t.Fatalf("loaded %d cells, want just appA/gto", len(done))
	}
}

// A malformed line with records after it means the file is not an
// append-truncated checkpoint: refuse it rather than silently re-running
// cells.
func TestCheckpointCorruptMiddleLine(t *testing.T) {
	path := ckptPath(t)
	content := "not json at all\n" +
		`{"v":2,"app":"appA","config":"gto","run":{"Cycles":1}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("corrupt non-final line must be an error")
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	path := ckptPath(t)
	content := `{"v":99,"app":"appA","config":"gto","run":{"Cycles":1}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	// TestParentCheckpointRefused holds a file the previous format wrote.
}

// A crash mid-append leaves a torn final line; a later sweep that opens
// the same checkpoint and appends must not concatenate its first record
// onto the torn tail — that would corrupt both records and make the
// loader reject the whole file.
func TestCheckpointAppendAfterTornTail(t *testing.T) {
	path := ckptPath(t)
	w, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appA", "gto", "fp", &stats.Run{Cycles: 100})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a partial record with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"app":"appB","config":"rba","run":{"Cyc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The resumed sweep repairs the tail on open, then appends cleanly.
	w, err = openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appB", "rba", "fp", &stats.Run{Cycles: 200})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	done, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after append-past-torn-tail: %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("loaded %d cells, want 2", len(done))
	}
	if a := done[ckptKey("appA", "gto", "fp")]; a == nil || a.Cycles != 100 {
		t.Errorf("appA/gto = %+v, want Cycles=100", a)
	}
	if b := done[ckptKey("appB", "rba", "fp")]; b == nil || b.Cycles != 200 {
		t.Errorf("appB/rba = %+v, want Cycles=200 (the re-appended record)", b)
	}
}

// Degenerate torn tails: a file that is nothing but a partial record
// truncates to empty; a healthy file is untouched byte for byte.
func TestCheckpointRepairTailEdgeCases(t *testing.T) {
	path := ckptPath(t)
	if err := os.WriteFile(path, []byte(`{"v":2,"app":"a"`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Fatalf("newline-free file should repair to empty, got %q (%v)", b, err)
	}

	healthy := `{"v":2,"app":"appA","config":"gto","run":{"Cycles":1}}` + "\n"
	if err := os.WriteFile(path, []byte(healthy), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if b, err := os.ReadFile(path); err != nil || string(b) != healthy {
		t.Fatalf("healthy file modified by repair: %q (%v)", b, err)
	}
}

// A cell re-run after a fault appends a second record; resume must take
// the newest.
func TestCheckpointLastRecordWins(t *testing.T) {
	path := ckptPath(t)
	w, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appA", "gto", "fp", &stats.Run{Cycles: 100})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open, as a resumed sweep would, and overwrite the cell.
	w, err = openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRecord("appA", "gto", "fp", &stats.Run{Cycles: 300})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	done, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := done[ckptKey("appA", "gto", "fp")]; got == nil || got.Cycles != 300 {
		t.Fatalf("resumed cell = %+v, want the newer record (Cycles=300)", got)
	}
}

// A record resumes only into the cell it was simulated for. The same app
// and config label on a different device (here NumSMs 2, then 4 — `sweep
// -sms`) must execute, not print the other device's cycles; going back to
// the first device finds its record again.
func TestCheckpointResumesByDeviceNotLabel(t *testing.T) {
	opt := Options{CheckpointPath: ckptPath(t)}
	// Eight blocks, so that 2 and 4 SMs finish at different cycles.
	p := workloads.Profile{Name: "app", Blocks: 8, WarpsPerBlock: 4, RegsPerThread: 8, Iters: 100, ILP: 2, FMAs: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	apps := []workloads.App{{Name: p.Name, Suite: "test", Kernels: []*gpu.Kernel{p.Kernel()}}}
	run := func(sms int) *Result {
		t.Helper()
		cfg := testCfg("gto")
		cfg.NumSMs = sms
		res, err := Run(context.Background(), []config.GPU{cfg}, nil, apps, opt)
		if err != nil || !res.Complete() {
			t.Fatalf("%d SMs: %v, faults %v", sms, err, res.Errs.Err())
		}
		return res
	}
	two := run(2)
	four := run(4)
	if four.Executed != 1 || four.Resumed != 0 {
		t.Fatalf("4 SMs after 2 under one label: executed %d, resumed %d; want 1, 0", four.Executed, four.Resumed)
	}
	if four.Runs[0][0].Cycles == two.Runs[0][0].Cycles {
		t.Fatalf("both devices report %d cycles; the test needs them to differ", two.Runs[0][0].Cycles)
	}
	for _, sms := range []int{2, 4} {
		if again := run(sms); again.Resumed != 1 || again.Executed != 0 {
			t.Errorf("%d SMs again: resumed %d, executed %d; want 1, 0", sms, again.Resumed, again.Executed)
		}
	}
	if got := run(2).Runs[0][0].Cycles; got != two.Runs[0][0].Cycles {
		t.Errorf("2-SM cell resumed as %d cycles, simulated %d", got, two.Runs[0][0].Cycles)
	}

	// How the run is watched is not the device: toggling the auditor or
	// the fast-forward (`sweep -audit`, `-no-fastforward`) finds the same
	// record and appends no second one.
	before, err := os.ReadFile(opt.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	watched := testCfg("gto")
	watched.NumSMs = 2
	for _, cfg := range []config.GPU{watched.WithAudit(4096), watched.WithNoFastForward(), watched.WithAudit(1).WithNoFastForward()} {
		res, err := Run(context.Background(), []config.GPU{cfg}, nil, apps, opt)
		if err != nil || res.Resumed != 1 || res.Executed != 0 {
			t.Errorf("audit %d, no-fastforward %v: %v, resumed %d, executed %d; want 1, 0",
				cfg.AuditEvery, cfg.NoFastForward, err, res.Resumed, res.Executed)
		}
	}
	if after, err := os.ReadFile(opt.CheckpointPath); err != nil || !bytes.Equal(after, before) {
		t.Errorf("resuming under another run mode rewrote the checkpoint (%v): %d bytes, were %d", err, len(after), len(before))
	}
}
