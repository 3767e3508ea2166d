package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// configFor parses args the way main does and assembles the configuration.
func configFor(t *testing.T, args ...string) (config.GPU, error) {
	t.Helper()
	fs := flag.NewFlagSet("subcoresim", flag.ContinueOnError)
	cf := registerCfgFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cf.config(fs)
}

// TestFlagDefaultsDoNotClobberConfigFile: -sms and -rba-latency override a
// config file only when given; their defaults (4 and 0) used to overwrite
// the file's values silently, and -fc was silently discarded.
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

	cfg, err = configFor(t, "-config-file", file, "-sms", "2", "-rba-latency", "0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 2 || cfg.RBAScoreLatency != 0 {
		t.Errorf("given flags must override the file: NumSMs %d, RBAScoreLatency %d", cfg.NumSMs, cfg.RBAScoreLatency)
	}

	if _, err := configFor(t, "-config-file", file, "-fc"); err == nil || !strings.Contains(err.Error(), "-fc") {
		t.Errorf("-fc with -config-file: got %v, want a refusal", err)
	}

	// Without a file the flag defaults are the configuration.
	cfg, err = configFor(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 4 || cfg.RBAScoreLatency != 0 {
		t.Errorf("defaults: NumSMs %d, RBAScoreLatency %d, want 4 and 0", cfg.NumSMs, cfg.RBAScoreLatency)
	}
	if fc, err := configFor(t, "-fc"); err != nil || fc.SubCoresPerSM != 1 {
		t.Errorf("-fc: %d sub-cores per SM (%v), want the monolithic SM", fc.SubCoresPerSM, err)
	}
}
