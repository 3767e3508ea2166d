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
