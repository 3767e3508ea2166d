package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// configFor parses args the way main does and assembles the configuration.
func configFor(t *testing.T, args ...string) (config.GPU, error) {
	t.Helper()
	fs := flag.NewFlagSet("subcoresim", flag.ContinueOnError)
	cf := registerCfgFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cf.config()
}

// TestFlagDefaultsDoNotClobberConfigFile: on top of a config file -sms and
// the design's modifiers override only what they name; an absent one leaves
// the file's value (the defaults 4 SMs and score latency 0 used to overwrite
// it silently), and a preset, which would discard the file, is refused.
func TestFlagDefaultsDoNotClobberConfigFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(file, []byte(`{"NumSMs": 8, "RBAScoreLatency": 5, "WarpScheduler": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg, err := configFor(t, "-config-file", file)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 8 || cfg.RBAScoreLatency != 5 || cfg.WarpScheduler != config.SchedRBA {
		t.Errorf("file values lost: NumSMs %d, RBAScoreLatency %d, scheduler %v", cfg.NumSMs, cfg.RBAScoreLatency, cfg.WarpScheduler)
	}

	cfg, err = configFor(t, "-config-file", file, "-sms", "2", "-config", "lat0+4cu")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 2 || cfg.RBAScoreLatency != 0 || cfg.CollectorUnitsPerSubCore != 4 {
		t.Errorf("given flags must override the file: NumSMs %d, RBAScoreLatency %d, CUs %d", cfg.NumSMs, cfg.RBAScoreLatency, cfg.CollectorUnitsPerSubCore)
	}
	if cfg.WarpScheduler != config.SchedRBA {
		t.Errorf("an absent modifier changed the file's scheduler to %v", cfg.WarpScheduler)
	}

	if _, err := configFor(t, "-config-file", file, "-config", "fc+rba"); err == nil || !strings.Contains(err.Error(), `preset "fc"`) {
		t.Errorf("a preset with -config-file: got %v, want a refusal", err)
	}

	// Without a file the design is the configuration.
	cfg, err = configFor(t)
	if err != nil {
		t.Fatal(err)
	}
	if want := config.VoltaV100().WithSMs(4); cfg != want {
		t.Errorf("defaults: %+v, want %+v", cfg, want)
	}
	if fc, err := configFor(t, "-config", "fc+srr+steal", "-sms", "2"); err != nil || fc.SubCoresPerSM != 1 ||
		fc.NumSMs != 2 || fc.SubCoreAssign != config.AssignSRR || !fc.BankStealing {
		t.Errorf("-config fc+srr+steal -sms 2: %+v (%v), want the monolithic SM with both modifiers", fc, err)
	}
	if _, err := configFor(t, "-config", "gto+rba"); err == nil {
		t.Error("-config gto+rba accepted")
	}

	// The run mode rides on top and is not the machine.
	watched, err := configFor(t, "-config", "rba+4cu", "-audit", "4096", "-no-fastforward")
	if err != nil || watched.AuditEvery != 4096 || !watched.NoFastForward {
		t.Fatalf("-audit -no-fastforward: %+v (%v)", watched, err)
	}
	if plain, _ := configFor(t, "-config", "4cu+rba"); plain.Machine() != watched.Machine() {
		t.Error("the run-mode flags changed the machine")
	}
}

// TestRecordIsOneShape: the record `subcoresim -json` prints for a cell is
// the line harness.Run appends to a checkpoint for the same cell on the same
// machine — the same keys and values throughout, the summary and the full
// statistics included — modulo indentation and the config label, which is
// the design's name here and the -configs entry there.
func TestRecordIsOneShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-app", "pb-mriq", "-config", "rba", "-sms", "2", "-json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var printed map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &printed); err != nil {
		t.Fatalf("-json is not one JSON document: %v", err)
	}

	app, err := workloads.ByName("pb-mriq")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Design("rba", 2)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := harness.Run(context.Background(), []config.GPU{cfg}, []string{"rba"}, []workloads.App{app},
		harness.Options{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var appended map[string]any
	if err := json.Unmarshal(line, &appended); err != nil {
		t.Fatalf("the checkpoint is not one record: %v", err)
	}

	if printed["config"] != cfg.Name || appended["config"] != "rba" {
		t.Errorf("config labels %v and %v, want %q and %q", printed["config"], appended["config"], cfg.Name, "rba")
	}
	delete(printed, "config")
	delete(appended, "config")
	if !reflect.DeepEqual(printed, appended) {
		t.Errorf("-json and the checkpoint line differ:\n%v\n%v", printed, appended)
	}
	if printed["machine"] != cfg.MachineID() {
		t.Errorf("machine = %v, want the device's MachineID %s", printed["machine"], cfg.MachineID())
	}
	cpi, _ := printed["cpi"].(map[string]any)
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		if e, ok := cpi[c.String()].(map[string]any); !ok || e["cycles"] == nil || e["share"] == nil {
			t.Errorf("cpi[%s] = %v, want its cycles and share", c, cpi[c.String()])
		}
	}
	for _, key := range []string{"v", "app", "ipc", "issue_cov", "bank_conflicts", "reg_reads", "mean_occupancy", "stalls", "run"} {
		if printed[key] == nil {
			t.Errorf("the record lost the key %q", key)
		}
	}
}

// TestJSONStdoutIsOneDocument: under -json everything else the flags print
// — the sparklines, the Chrome-trace notice — goes to stderr; they used to
// follow the document on stdout, so `-json -trace | python3 -m json.tool`
// failed.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	var stdout, stderr bytes.Buffer
	chrome := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-sms", "2", "-json", "-trace", "-timeline", "-chrome-trace", chrome}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&stdout)
	var rec harness.Record
	if err := dec.Decode(&rec); err != nil || rec.App != "pb-mriq" || rec.Run == nil {
		t.Fatalf("stdout does not start with the record: %v", err)
	}
	if rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), &stdout)); len(bytes.TrimSpace(rest)) != 0 {
		t.Errorf("stdout continues after the record: %q", rest)
	}
	for _, want := range []string{"SM0 register reads per cycle", "SM0 per-sub-core instructions issued", "wrote Chrome trace"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q", want)
		}
	}

	// Without -json they stay on stdout, after the report.
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-sms", "2", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.HasPrefix(out, "app:            pb-mriq\n") || !strings.Contains(out, "SM0 register reads per cycle") || stderr.Len() != 0 {
		t.Errorf("text mode: stdout %q, stderr %q", out, stderr.String())
	}
}

// TestSnapshotIntervalNeedsDir: -snapshot-interval without -snapshot-dir was
// ignored; the run is refused (exit 1 with this error) before it starts.
func TestSnapshotIntervalNeedsDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-sms", "2", "-snapshot-interval", "4096"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-snapshot-dir") || stdout.Len() != 0 {
		t.Errorf("run: %v, stdout %q; want a refusal naming -snapshot-dir and no report", err, stdout.String())
	}
}
