package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// testdata/vN.ckpt and testdata/vN_tpcU-q8__V100.snap were each written by
// the last build of that ckptVersion or snapshot.Version (3 and 7, the first
// keyed on the MachineID; 4 and 8, whose machine still had WarpSize and
// LSUWidthPerSM):
//
//	sweep -apps pb-mriq -configs gto -sms 1 -checkpoint vN.ckpt
//	subcoresim -app tpcU-q8 -config-file tiny.json -snapshot-dir . -snapshot-interval 1   # SIGTERM at 0.06 s
//
// with tiny.json {"NumSMs":1,"L1KBPerSM":1,"L2KB":4}, which keeps the frame
// under 6 KB.

// A checkpoint an earlier format wrote is refused whole, before any cell
// starts and without touching the file: a version 3 record carries the
// machine under "cfg" and no summary, a version 4 one a MachineID no machine
// has now, and resuming from half-read records would silently re-run every
// cell beside them.
func TestParentCheckpointRefused(t *testing.T) {
	app, err := workloads.ByName("pb-mriq")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Design("gto", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ file, version string }{{"v3.ckpt", "3"}, {"v4.ckpt", "4"}} {
		old, err := os.ReadFile("testdata/" + v.file)
		if err != nil {
			t.Fatal(err)
		}
		path := ckptPath(t)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), []config.GPU{cfg}, []string{"gto"}, []workloads.App{app}, Options{CheckpointPath: path})
		if err == nil || !strings.Contains(err.Error(), "checkpoint line 1: unsupported version "+v.version+" (this build reads and writes 5; start a new file)") {
			t.Fatalf("Run on the version %s checkpoint: %v, want the version refusal", v.version, err)
		}
		if res != nil {
			t.Errorf("the refused sweep returned a result (%d cells executed)", res.Executed)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, old) {
			t.Errorf("the refused version %s checkpoint was modified", v.version)
		}
	}
}

// A frame an earlier format wrote — for this very cell, on this very
// machine — is discarded with the version message and the cell restarts from
// cycle zero, with the statistics of an undisturbed run.
func TestParentFrameRefusedCellRestarts(t *testing.T) {
	app, err := workloads.ByName("tpcU-q8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.VoltaV100()
	cfg.NumSMs, cfg.L1KBPerSM, cfg.L2KB = 1, 1, 4
	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	for _, v := range []struct{ file, version string }{{"v7_tpcU-q8__V100.snap", "7"}, {"v8_tpcU-q8__V100.snap", "8"}} {
		frame, err := os.ReadFile("testdata/" + v.file)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(snapPath(dir, app.Name, cfg.Name), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		var logs []string
		run, fault := runOne(t, context.Background(), cfg, app, Options{
			SnapshotDir: dir,
			Logf:        func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) },
		})
		if fault != nil {
			t.Fatal(fault)
		}
		if log := strings.Join(logs, "\n"); !strings.Contains(log, "snapshot unusable, restarting fresh") ||
			!strings.Contains(log, "snapshot: format version "+v.version+", this build reads only 9 — re-run from scratch") {
			t.Errorf("the version %s refusal was not logged with the version message: %q", v.version, logs)
		}
		if runStatsJSON(t, run) != runStatsJSON(t, golden) {
			t.Errorf("the cell restarted after the refused version %s frame diverged from an undisturbed run", v.version)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
			t.Errorf("the refused version %s frame was not discarded: %v", v.version, left)
		}
	}
}

// The summary a record carries is derived from its run when the record is
// built and never read back: a checkpoint whose summary was edited by hand
// resumes, and the record of the resumed cell is the original line again.
func TestCheckpointSummaryIsRecomputed(t *testing.T) {
	path := ckptPath(t)
	cfgs, apps := []config.GPU{testCfg("base")}, []workloads.App{testApp("app", 300)}
	if _, err := Run(context.Background(), cfgs, nil, apps, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := regexp.MustCompile(`"ipc":[^,]*,"issue_cov":[^,]*,`).ReplaceAll(line, []byte(`"ipc":999,"issue_cov":0.5,`))
	if bytes.Equal(edited, line) {
		t.Fatalf("no summary to edit in %s", line)
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), cfgs, nil, apps, Options{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 || res.Executed != 0 {
		t.Fatalf("resumed %d, executed %d; want the edited record resumed", res.Resumed, res.Executed)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(NewRecord("app", "base", cfgs[0].MachineID(), res.Runs[0][0])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), line) {
		t.Errorf("the resumed cell's record is not the line first written:\n%s\n%s", buf.Bytes(), line)
	}
}

// A snapshot interval with nowhere to write frames used to be ignored in
// silence; it is refused before any cell starts.
func TestSnapshotIntervalNeedsDir(t *testing.T) {
	cfg, app := testCfg("base"), testApp("app", 10)
	opt := Options{SnapshotInterval: 1024}
	res, err := Run(context.Background(), []config.GPU{cfg}, nil, []workloads.App{app}, opt)
	if err == nil || !strings.Contains(err.Error(), "-snapshot-dir") || res != nil {
		t.Errorf("Run: %v (result %v), want the refusal and no result", err, res)
	}
}

// ROADMAP aim 3: a scenario Validate accepts never ends in a deadline fault.
// An LSU with no queue can take no memory instruction, so the cell used to
// run to the cycle cap; now no device is built for it.
func TestZeroLSUQueueFaultsAtCycleZero(t *testing.T) {
	app, err := workloads.ByName("rod-htsp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg("no-lsu-queue")
	cfg.LSUQueue = 0
	_, fault := runOne(t, context.Background(), cfg, app, Options{MaxCycles: 20_000})
	if fault == nil || fault.Kind != FaultError || fault.Cycle != 0 || !strings.Contains(fault.Error(), "LSUQueue") {
		t.Fatalf("fault = %v, want an error fault at cycle 0 naming LSUQueue", fault)
	}
}
