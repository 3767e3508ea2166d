package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// designsFor parses args the way run does and assembles the configurations
// and their labels.
func designsFor(t *testing.T, args ...string) ([]config.GPU, []string, error) {
	t.Helper()
	fs := flag.NewFlagSet("subcoresim", flag.ContinueOnError)
	cf := registerCfgFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cf.designs()
}

// configFor is the one configuration args name.
func configFor(t *testing.T, args ...string) (config.GPU, error) {
	t.Helper()
	cfgs, _, err := designsFor(t, args...)
	if err != nil {
		return config.GPU{}, err
	}
	return cfgs[0], nil
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

// TestRecordIsOneShape: under -format json each line subcoresim prints is
// the line harness.Run appends to the checkpoint for the same cell, byte for
// byte and labelled alike, the summary and the full statistics included. One
// worker appends in matrix order, so stdout is the checkpoint file.
func TestRecordIsOneShape(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-app", "pb-mriq,pb-stencil", "-config", "gto,rba", "-sms", "2",
		"-workers", "1", "-checkpoint", ckpt, "-format", "json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), file) {
		t.Fatalf("-format json and the checkpoint differ:\n%s\n%s", stdout.Bytes(), file)
	}
	lines := bytes.Split(bytes.TrimSuffix(file, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("%d records for 2 apps x 2 designs", len(lines))
	}
	var printed map[string]any
	if err := json.Unmarshal(lines[1], &printed); err != nil {
		t.Fatalf("a -format json line is not one record: %v", err)
	}
	cfg, err := config.Design("rba", 2)
	if err != nil {
		t.Fatal(err)
	}
	if printed["app"] != "pb-mriq" || printed["config"] != "rba" || printed["machine"] != cfg.MachineID() {
		t.Errorf("the second record is (%v, %v) on machine %v, want (pb-mriq, rba) on %s",
			printed["app"], printed["config"], printed["machine"], cfg.MachineID())
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

// TestCSVIsTheMatrix: under -format csv a matrix prints, in matrix order
// (applications outer, designs inner), the row stats.Summarize gives for
// each of harness.Run's cells, labelled by the -config entry as typed.
func TestCSVIsTheMatrix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-app", "pb-stencil,pb-mriq", "-config", "rba+4cu,gto", "-sms", "2", "-format", "csv"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	names := []string{"rba+4cu", "gto"}
	var cfgs []config.GPU
	for _, name := range names {
		cfg, err := config.Design(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	var apps []workloads.App
	for _, name := range []string{"pb-stencil", "pb-mriq"} {
		app, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	res, err := harness.Run(context.Background(), cfgs, names, apps, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "app,config," + stats.CSVHeader + "\n"
	for i, app := range apps {
		for j, name := range names {
			sum := stats.Summarize(res.Runs[i][j])
			want += app.Name + "," + name + "," + sum.CSVRow() + "\n"
		}
	}
	if got := stdout.String(); got != want {
		t.Errorf("-format csv:\n%s\nwant:\n%s", got, want)
	}
}

// TestTracerIsOneCell: a tracer records one device, so -trace over two cells
// is refused before any cell runs: nothing printed, no checkpoint written.
func TestTracerIsOneCell(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-config", "gto,rba", "-sms", "2", "-trace", "-checkpoint", ckpt}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "tracer") || stdout.Len() != 0 {
		t.Errorf("run: %v, stdout %q; want the harness's tracer refusal and no report", err, stdout.String())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("a cell ran: the checkpoint is there (%v)", err)
	}
}

// TestEntriesRefusesEmpty: an empty list entry is refused with the flag and
// its position, not read as the baseline design or an app named "". A lone
// empty -config is the one exception: the preset, or the -config-file, as it
// is, labelled by its name.
func TestEntriesRefusesEmpty(t *testing.T) {
	for _, list := range []string{"gto,", ",gto", "gto,,rba", " "} {
		if _, _, err := designsFor(t, "-config", list); err == nil || !strings.Contains(err.Error(), "-config entry") {
			t.Errorf("-config %q: %v, want an empty-entry error", list, err)
		}
	}
	if _, err := selectApps("pb-mriq,", "", false); err == nil || !strings.Contains(err.Error(), "-app entry 2 of 2") {
		t.Errorf("-app pb-mriq,: %v, want an empty-entry error", err)
	}
	got, err := entries("app", "pb-mriq, rod-srad")
	if err != nil || !slices.Equal(got, []string{"pb-mriq", "rod-srad"}) {
		t.Errorf("entries = %q, %v", got, err)
	}

	cfgs, names, err := designsFor(t, "-config", "", "-sms", "2")
	if err != nil || len(cfgs) != 1 || names[0] != "V100+2SM" || cfgs[0].Name != names[0] {
		t.Errorf("a lone empty -config: %q (%v), want the baseline labelled V100+2SM", names, err)
	}
	file := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(file, []byte(`{"Name": "dev", "NumSMs": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, names, err := designsFor(t, "-config-file", file); err != nil || !slices.Equal(names, []string{"dev"}) {
		t.Errorf("a lone empty -config on a file: %q (%v), want the file's name", names, err)
	}
	if _, names, err := designsFor(t, "-config-file", file, "-config", "gto,rba"); err != nil || !slices.Equal(names, []string{"gto", "rba"}) {
		t.Errorf("a matrix on a file: %q (%v), want the entries", names, err)
	}
}

// TestJSONStdoutIsOneDocument: under -format json everything else the flags
// print — the sparklines, the Chrome-trace notice — goes to stderr, so
// stdout parses as the record alone.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	var stdout, stderr bytes.Buffer
	chrome := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-sms", "2", "-format", "json", "-trace", "-timeline", "-chrome-trace", chrome}, &stdout, &stderr); err != nil {
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

	// In the text report they stay on stdout, after it.
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

// TestOneAppSelector: -app, -suite and -sensitive each select the
// applications, so two of them are refused before anything runs rather than
// one going unread.
func TestOneAppSelector(t *testing.T) {
	for _, args := range [][]string{{"-app", "pb-mriq", "-sensitive"}, {"-suite", "cugraph", "-sensitive"}, {"-app", "all", "-suite", "cugraph"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "give one") || stdout.Len() != 0 {
			t.Errorf("%q: %v, stdout %q; want a refusal and no report", args, err, stdout.String())
		}
	}
}
