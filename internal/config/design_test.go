package config

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sweepTokenAtPR21 is the closed token list cmd/sweep's parseConfig held
// before the grammar replaced it, kept as the reference the grammar is
// compared against.
func sweepTokenAtPR21(tok string, sms int) GPU {
	base := VoltaV100().WithSMs(sms)
	switch tok {
	case "gto", "base", "":
		return base
	case "lrr":
		return base.WithScheduler(SchedLRR)
	case "rba":
		return base.WithScheduler(SchedRBA)
	case "srr":
		return base.WithAssign(AssignSRR)
	case "shuffle":
		return base.WithAssign(AssignShuffle)
	case "rba+shuffle", "shuffle+rba":
		return base.WithScheduler(SchedRBA).WithAssign(AssignShuffle)
	case "rba+srr", "srr+rba":
		return base.WithScheduler(SchedRBA).WithAssign(AssignSRR)
	case "fc":
		return FullyConnected().WithSMs(sms)
	case "fc+rba":
		return FullyConnected().WithSMs(sms).WithScheduler(SchedRBA)
	case "steal":
		return base.WithBankStealing()
	case "4cu":
		return base.WithCUs(4)
	case "16cu":
		return base.WithCUs(16)
	case "4bank":
		return base.WithBanks(4)
	}
	panic("not a PR 21 sweep token: " + tok)
}

func TestDesignAcceptsEveryOldSweepToken(t *testing.T) {
	for _, tok := range []string{"gto", "base", "", "lrr", "rba", "srr", "shuffle", "rba+shuffle", "shuffle+rba",
		"rba+srr", "srr+rba", "fc", "fc+rba", "steal", "4cu", "16cu", "4bank"} {
		got, err := Design(tok, 2)
		if err != nil {
			t.Errorf("Design(%q): %v", tok, err)
			continue
		}
		if want := sweepTokenAtPR21(tok, 2); got.Machine() != want.Machine() {
			t.Errorf("Design(%q) = %+v, want the machine of %+v", tok, got, want)
		}
	}
}

// TestDesignCoversTheDeletedFlags: every combination of subcoresim's
// deleted -fc -sched -assign -cus -banks -steal -rba-latency, assembled the
// way its config() did, is a design with the same machine, whatever order
// its modifiers come in, and a name the With* helpers composed.
func TestDesignCoversTheDeletedFlags(t *testing.T) {
	scheds := map[string]WarpSched{"gto": SchedGTO, "lrr": SchedLRR, "rba": SchedRBA}
	assigns := map[string]Assign{"rr": AssignRR, "srr": AssignSRR, "shuffle": AssignShuffle}
	rng := rand.New(rand.NewSource(22))
	n := 0
	for _, fc := range []bool{false, true} {
		for sched, s := range scheds {
			for assign, a := range assigns {
				for _, cus := range []int{0, 4} {
					for _, banks := range []int{0, 4} {
						for _, steal := range []bool{false, true} {
							for _, lat := range []int{-1, 0, 5} { // -1: -rba-latency not given
								want, preset := VoltaV100(), ""
								if fc {
									want, preset = FullyConnected(), "fc"
								}
								want = want.WithSMs(4)
								mods := []string{sched, assign}
								if s != SchedGTO {
									want = want.WithScheduler(s)
								}
								if a != AssignRR {
									want = want.WithAssign(a)
								}
								if cus > 0 {
									want, mods = want.WithCUs(cus), append(mods, fmt.Sprintf("%dcu", cus))
								}
								if banks > 0 {
									want, mods = want.WithBanks(banks), append(mods, fmt.Sprintf("%dbank", banks))
								}
								if steal {
									want, mods = want.WithBankStealing(), append(mods, "steal")
								}
								if lat >= 0 {
									want.RBAScoreLatency = lat
									mods = append(mods, fmt.Sprintf("lat%d", lat))
								}
								for range 2 {
									design := strings.Join(append([]string{preset}, mods...), "+")
									design = strings.TrimPrefix(design, "+")
									got, err := Design(design, 4)
									if err != nil {
										t.Fatalf("Design(%q): %v", design, err)
									}
									if got.Machine() != want.Machine() {
										t.Fatalf("Design(%q) = %+v, want the machine of %+v", design, got, want)
									}
									for _, m := range mods {
										if !strings.Contains(strings.ToLower(got.Name), "+"+m) {
											t.Fatalf("Design(%q) is named %q: no %q", design, got.Name, m)
										}
									}
									rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
									n++
								}
							}
						}
					}
				}
			}
		}
	}
	if n != 2*2*3*3*2*2*2*3 {
		t.Errorf("covered %d designs", n)
	}
}

func TestDesignErrorsListTheGrammar(t *testing.T) {
	for _, bad := range []string{"gto+rba", "2cu+4cu", "srr+shuffle", "steal+steal", "lat0+lat5", "rba+fc", "fc+v100",
		"rba+", "+rba", "fc+", "rba++srr", "turbo", "0cu", "-4cu", "cu", "0bank", "lat", "lat-1", "RBA", "rba +srr"} {
		if g, err := Design(bad, 4); err == nil || !strings.Contains(err.Error(), grammar) {
			t.Errorf("Design(%q) = %q, %v; want an error that lists the grammar", bad, g.Name, err)
		}
	}
	// A value the grammar can spell but the device cannot hold is the
	// validator's error, not a grammar error.
	if _, err := Design("65cu", 4); err == nil || strings.Contains(err.Error(), grammar) {
		t.Errorf("Design(65cu): %v, want Validate's refusal", err)
	}
}

// TestWithModifiersLayersOnAnyConfig: on a configuration that did not come
// from a preset, an absent modifier changes nothing, a present one
// overrides — including back to a default — and a preset is refused.
func TestWithModifiersLayersOnAnyConfig(t *testing.T) {
	file, err := FromJSON(strings.NewReader(`{"NumSMs": 8, "RBAScoreLatency": 5, "WarpScheduler": 2, "CollectorUnitsPerSubCore": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := file.WithModifiers(""); err != nil || got != file {
		t.Errorf("no modifiers: %+v, %v; want the file's configuration", got, err)
	}
	got, err := file.WithModifiers("gto+lat0+srr")
	if err != nil {
		t.Fatal(err)
	}
	if got.WarpScheduler != SchedGTO || got.RBAScoreLatency != 0 || got.SubCoreAssign != AssignSRR {
		t.Errorf("modifiers must override the file: %+v", got)
	}
	if got.NumSMs != 8 || got.CollectorUnitsPerSubCore != 4 {
		t.Errorf("absent modifiers must leave the file's values: %+v", got)
	}
	if _, err := file.WithModifiers("fc+rba"); err == nil || !strings.Contains(err.Error(), "preset") {
		t.Errorf("a preset on top of a configuration: %v, want a refusal", err)
	}
}

// TestMachineIgnoresLabelAndRunMode: the label and the two run-mode fields
// are not the machine; every modelled field is.
func TestMachineIgnoresLabelAndRunMode(t *testing.T) {
	g := VoltaV100().WithSMs(4)
	same := g.WithAudit(4096).WithNoFastForward()
	same.Name = "another label"
	if same.Machine() != g.Machine() || same.MachineID() != g.MachineID() {
		t.Errorf("label, AuditEvery and NoFastForward changed the machine: %s vs %s", same.MachineID(), g.MachineID())
	}
	if g.Machine() == g {
		t.Error("Machine kept the label")
	}
	for name, other := range map[string]GPU{
		"sms": g.WithSMs(2), "sched": g.WithScheduler(SchedRBA), "lat": g.WithRBALatency(1), "steal": g.WithBankStealing(),
		"seed": func() GPU { o := g; o.Seed++; return o }(), "dram": func() GPU { o := g; o.DRAMBytesPerCycle *= 4; return o }(),
	} {
		if other.Machine() == g.Machine() || other.MachineID() == g.MachineID() {
			t.Errorf("%s: a modelled field did not change the machine", name)
		}
	}
}
