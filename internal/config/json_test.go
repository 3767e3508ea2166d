package config

import (
	"strings"
	"testing"
)

func TestFromJSONOverrides(t *testing.T) {
	g, err := FromJSON(strings.NewReader(`{"NumSMs": 8, "BanksPerSubCore": 4, "WarpScheduler": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 8 || g.BanksPerSubCore != 4 || g.WarpScheduler != SchedRBA {
		t.Errorf("overrides not applied: %+v", g)
	}
	// Unspecified fields keep Table II defaults.
	if g.MaxWarpsPerSM != 64 || g.CollectorUnitsPerSubCore != 2 {
		t.Error("defaults lost")
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON(strings.NewReader(`{"NumSMs": 0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"NoSuchField": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// The observer's knobs left the configuration: a file that still names
	// one is refused, not silently ignored.
	if _, err := FromJSON(strings.NewReader(`{"TraceSamplePeriod": 32}`)); err == nil || !strings.Contains(err.Error(), `unknown field "TraceSamplePeriod"`) {
		t.Errorf("TraceSamplePeriod in a config file: %v, want the decoder's unknown-field error", err)
	}
	// So did two constants: the warp size is isa.WarpSize's, and the LSU's
	// width was never read.
	for _, f := range []string{"WarpSize", "LSUWidthPerSM"} {
		if _, err := FromJSON(strings.NewReader(`{"` + f + `": 32}`)); err == nil || !strings.Contains(err.Error(), `unknown field "`+f+`"`) {
			t.Errorf("%s in a config file: %v, want the decoder's unknown-field error", f, err)
		}
	}
	if _, err := FromJSON(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
