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

// TestNextEventContractEveryCycle holds NextEvent to its contract at
// every cycle, not only where the device loop happens to probe it. The
// run loop backs off for 8 issueless cycles before asking, so the
// end-to-end fast-forward identity tests never see a NextEvent that is
// wrong only in the first cycles of a quiescent span (a decode refill
// pending, a collector unit staged but not yet reading). Here two
// identical SMs run in lockstep: A skips every cycle NextEvent calls
// idle with FastForward(c, 1), B ticks them all. The encoded machine
// state must match after each skipped cycle and the statistics at drain.
//
// Two programs: memMixProg with eight warps covers the writeback heap,
// the LSU port and barriers; sfuChainProg with one warp leaves a collected
// unit waiting on the 8-cycle SFU pipe while its warp is hazard-blocked,
// so only the collector's staged-unit term keeps NextEvent honest there.
func TestNextEventContractEveryCycle(t *testing.T) {
	for _, sched := range []config.WarpSched{config.SchedGTO, config.SchedRBA} {
		t.Run(sched.String(), func(t *testing.T) {
			t.Run("mem-mix", func(t *testing.T) { nextEventLockstep(t, sched, memMixProg(6), 8) })
			t.Run("sfu-chain", func(t *testing.T) { nextEventLockstep(t, sched, sfuChainProg(20), 1) })
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

func nextEventLockstep(t *testing.T, sched config.WarpSched, prog *program.Program, warps int) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	cfg.WarpScheduler = sched
	// The kernels' footprint (at most 256 KB) fits either way; a full 6 MB
	// L2 only makes each state frame slower to encode.
	cfg.L2KB = 384
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	progs := make([]*program.Program, warps)
	for i := range progs {
		progs[i] = prog
	}
	build := func() (*SM, *mem.Hierarchy, *stats.Run) {
		run := stats.NewRun(1, cfg.SubCoresPerSM)
		hier := mem.NewHierarchy(cfg)
		sm := NewSM(0, &cfg, hier, run)
		if err := sm.Allocate(specOf(progs, 16, 4096)); err != nil {
			t.Fatal(err)
		}
		return sm, hier, run
	}
	a, hierA, runA := build()
	b, hierB, runB := build()

	skipped := 0
	for c := int64(0); !b.Drained(); c++ {
		if c > 20000 {
			t.Fatal("SM did not drain; raise the cycle bound")
		}
		b.Tick(c)
		if a.NextEvent(c) <= c {
			a.Tick(c)
			continue
		}
		a.FastForward(c, 1)
		skipped++
		if !bytes.Equal(snapSMState(t, a, hierA), snapSMState(t, b, hierB)) {
			t.Fatalf("cycle %d: NextEvent reported no event, but ticking the cycle changed machine state", c)
		}
	}
	if skipped == 0 {
		t.Fatal("no cycle was skipped; the workload no longer exercises the contract")
	}
	if !a.Drained() {
		t.Fatal("ticked SM drained but the fast-forwarded one did not")
	}
	ja, err := json.Marshal(runA)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(runB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("statistics diverged after %d single-cycle skips:\nskipped: %s\nticked:  %s", skipped, ja, jb)
	}
	t.Logf("%d single-cycle skips", skipped)
}
