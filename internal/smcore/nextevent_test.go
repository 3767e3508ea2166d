package smcore

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// TestNextEventContractEveryCycle holds NextEvent — and the wake / sync
// contract built on it — to its word at every cycle, not only where the
// device loop happens to sleep. Two identical SMs run side by side: B is
// ticked every cycle, A only at the cycles its Wake names. Each program
// runs twice. First A is synced after every cycle it sleeps and its
// encoded machine state must equal B's there — a NextEvent that is wrong
// only in the first cycles of a quiescent span (a decode refill pending, a
// collector unit staged but not yet reading) fails at that cycle. Then A
// is left alone until it wakes, as the device loop leaves it, and the
// whole span is charged in one Sync before the states are compared.
// Statistics must match at drain, and A must have slept.
//
// Two programs: memMixProg with eight warps covers the writeback heap,
// the LSU port and barriers; sfuChainProg with one warp leaves a collected
// unit waiting on the 8-cycle SFU pipe while its warp is hazard-blocked,
// so only the collector's staged-unit term keeps NextEvent honest there.
func TestNextEventContractEveryCycle(t *testing.T) {
	for _, sc := range []struct {
		name    string
		sched   config.WarpSched
		latency int
	}{
		{"GTO", config.SchedGTO, 0},
		{"RBA", config.SchedRBA, 0},
		// Only a delayed score tap gives the collectors a queue-length ring,
		// and a sleep must land it where the skipped ticks would have.
		{"RBA-lat5", config.SchedRBA, 5},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cfg := lockstepCfg(t, sc.sched)
			cfg.RBAScoreLatency = sc.latency
			for _, tc := range []struct {
				name  string
				prog  *program.Program
				warps int
			}{{"mem-mix", memMixProg(6), 8}, {"sfu-chain", sfuChainProg(20), 1}} {
				t.Run(tc.name, func(t *testing.T) {
					for _, eachCycle := range []bool{true, false} {
						if wakeTwin(t, cfg, tc.prog, tc.warps, 16, eachCycle) == 0 {
							t.Fatal("the wake-driven SM never slept; the workload no longer exercises the contract")
						}
					}
				})
			}
		})
	}
}

// sfuChainProg issues two back-to-back SFU ops and a dependent FMA: the
// second SFU collects its operand and then waits for the pipe.
func sfuChainProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.SFU(4, 1)
		lb.SFU(5, 2)
		lb.FMA(6, 4, 5, 6)
	})
	return b.MustBuild()
}

// lockstepCfg is a one-SM V100 under sched.
func lockstepCfg(t testing.TB, sched config.WarpSched) config.GPU {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	cfg.WarpScheduler = sched
	// The kernels' footprint (at most 256 KB) fits either way; a full 6 MB
	// L2 only makes each state frame slower to encode.
	cfg.L2KB = 384
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// twin is one side of a twin-SM comparison: an SM with one block placed,
// its hierarchy and its statistics.
type twin struct {
	*SM
	hier *mem.Hierarchy
	run  *stats.Run
}

func newTwin(t testing.TB, cfg config.GPU, spec *BlockSpec) twin {
	run := stats.NewRun(1, cfg.SubCoresPerSM)
	hier := mem.NewHierarchy(cfg)
	sm := NewSM(0, &cfg, hier, run)
	if err := sm.Allocate(spec); err != nil {
		t.Fatal(err)
	}
	return twin{sm, hier, run}
}

// sameState syncs both twins to cycle c (sleeping sub-cores lag even when
// their SM does not) and reports whether their machine state is equal.
func sameState(t testing.TB, a, b twin, c int64) bool {
	a.Sync(c)
	b.Sync(c)
	return bytes.Equal(snapSMState(t, a.SM, a.hier), snapSMState(t, b.SM, b.hier))
}

// sameStats reports whether the twins' statistics are equal, and both.
func sameStats(t testing.TB, a, b twin) (bool, []byte, []byte) {
	ja, err := json.Marshal(a.run)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.run)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb), ja, jb
}

// wakeTwin runs one block of warps × prog on two SMs — B ticked every
// cycle, A only at its wake cycles — and fails on the first difference in
// encoded state (after each slept cycle when eachCycle, else after each
// slept span) or in the drained statistics. B is built with NoFastForward,
// so none of its sub-cores ever sleeps either: the reference shares neither
// level of the mechanism it checks. It returns how many cycles A slept.
func wakeTwin(t testing.TB, cfg config.GPU, prog *program.Program, warps, regs int, eachCycle bool) int {
	progs := make([]*program.Program, warps)
	for i := range progs {
		progs[i] = prog
	}
	a := newTwin(t, cfg, specOf(progs, regs, 4096))
	b := newTwin(t, cfg.WithNoFastForward(), specOf(progs, regs, 4096))
	same := func(c int64) {
		if !sameState(t, a, b, c) {
			t.Fatalf("cycle %d: the SM slept on NextEvent's word, but ticking those cycles changed machine state", c)
		}
	}

	slept := 0
	c := int64(0)
	for ; !b.Drained(); c++ {
		if c > 500000 {
			t.Fatal("SM did not drain; raise the cycle bound")
		}
		if a.Wake() <= c {
			if a.Synced() < c {
				same(c)
			}
			a.Tick(c)
			b.Tick(c)
			continue
		}
		b.Tick(c)
		slept++
		if eachCycle {
			same(c + 1)
		}
	}
	same(c)
	if !a.Drained() {
		t.Fatal("ticked SM drained but the wake-driven one did not")
	}
	if ok, ja, jb := sameStats(t, a, b); !ok {
		t.Fatalf("statistics diverged after %d slept cycles:\nwake-driven: %s\nticked:      %s", slept, ja, jb)
	}
	return slept
}
