package smcore

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// TestSubCoreMidCycleWake drives the one wake source that fires in the
// middle of a cycle: a sub-core's issue reaching into sub-cores that sleep.
// Warp 1 — sub-core 1 under round-robin — is its block's straggler: warps 0,
// 2 and 3 arrive at the barrier, and after it exit, long before warp 1 does,
// and their sub-cores sleep there. Warp 1's BAR then opens the barrier, and
// its EXIT retires the block, with a sleeper on either side of it in the
// issue order: sub-core 0's turn in that cycle has passed, 2's and 3's are
// still to come. A is compared with B, an SM under NoFastForward whose
// sub-cores never sleep, after every cycle (state and statistics), and then
// again with A's sleepers left unsynced until the end, so whole spans are
// charged at the wake.
func TestSubCoreMidCycleWake(t *testing.T) {
	quick := program.NewBuilder().Bar().MustBuild()
	chain := func(lb *program.Builder) { lb.SFU(4, 4) }
	slow := program.NewBuilder().Loop(8, chain).Bar().Loop(8, chain).MustBuild()
	progs := []*program.Program{quick, slow, quick, quick}
	others := [4]bool{true, false, true, true} // who sleeps when warp 1 acts

	for _, sched := range []config.WarpSched{config.SchedGTO, config.SchedRBA} {
		for _, eachCycle := range []bool{true, false} {
			cfg := lockstepCfg(t, sched)
			a := newTwin(t, cfg, specOf(progs, 16, 0))
			b := newTwin(t, cfg.WithNoFastForward(), specOf(progs, 16, 0))
			if a.warps[1].SubCore != 1 {
				t.Fatalf("the straggler sits on sub-core %d, the test wants it between sleepers", a.warps[1].SubCore)
			}
			same := func(c int64) {
				t.Helper()
				if !sameState(t, a, b, c) {
					t.Fatalf("%s: machine state differs from the never-sleeping twin's at cycle %d", sched, c)
				}
				if ok, ja, jb := sameStats(t, a, b); !ok {
					t.Fatalf("%s: statistics differ at cycle %d:\nsleeping: %s\nawake:    %s", sched, c, ja, jb)
				}
			}

			released, retired := false, false
			c := int64(0)
			for ; !b.Drained(); c++ {
				if c > 10000 {
					t.Fatal("SM did not drain")
				}
				var asleep [4]bool
				for i := range a.subcores {
					asleep[i] = a.sleeps(i) && i != 1 // a writeback may yet wake the actor
					if b.sleeps(i) {
						t.Fatalf("cycle %d: sub-core %d of the NoFastForward twin sleeps: the reference shares the mechanism", c, i)
					}
				}
				waiting, resident := b.blocks[0].barrierWaiting, b.residentWarps
				a.Tick(c)
				b.Tick(c)
				switch {
				case waiting == 3 && b.blocks[0].barrierWaiting == 0:
					released = true
					if asleep != others {
						t.Fatalf("cycle %d: barrier released with sub-cores asleep %v, want %v", c, asleep, others)
					}
				case resident == 4 && b.residentWarps == 0:
					retired = true
					if asleep != others {
						t.Fatalf("cycle %d: block retired with sub-cores asleep %v, want %v", c, asleep, others)
					}
				}
				if eachCycle {
					same(c + 1)
				}
			}
			same(c)
			if !released || !retired {
				t.Fatalf("released %t, retired %t: the program no longer reaches both mid-cycle wakes", released, retired)
			}
			if vs := a.Audit(); len(vs) != 0 {
				t.Fatalf("drained SM fails its audit: %v", vs)
			}
		}
	}
}

// TestAuditCatchesUnsoundSleep seeds the two ways the derived sleep state
// can be wrong: a sub-core asleep with a warp ready to issue (Tick would
// skip it), and an awake one whose clock lags its SM's (its next sync would
// charge the gap twice). The readyset law must name each, alone.
func TestAuditCatchesUnsoundSleep(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	for _, tc := range []struct {
		seed func(*SM)
		want string
	}{
		{func(sm *SM) { sm.awake &^= 1 }, "asleep with work"},
		{func(sm *SM) { sm.synced++ }, "clock reads"},
	} {
		sm, _, _ := readySetSM(t, &cfg, 8)
		for c := int64(0); c < 20; c++ {
			sm.Tick(c)
		}
		if sm.subcores[0].rs.ready == 0 || sm.sleeps(0) {
			t.Fatal("sub-core 0 has no ready warp to sleep on; move the cycle")
		}
		tc.seed(sm)
		var got []string
		for _, v := range sm.Audit() {
			if v.Rule != "readyset" || !strings.Contains(v.Detail, tc.want) {
				t.Fatalf("want only readyset %q violations, got %v", tc.want, v)
			}
			got = append(got, v.Where)
		}
		if len(got) == 0 {
			t.Fatalf("seeded %q went unreported", tc.want)
		}
	}
}

// TestRestoreRebuildsSleep restores a frame taken while three of four
// sub-cores slept — TestSubCoreMidCycleWake's block, its quick warps parked
// at the barrier while the straggler runs — into a fresh SM. The awake mask
// is not in the frame: RestoreState must rebuild it, setting a bit for each
// sub-core that has work and clearing it for each quiescent one, and equal
// the mask of the SM the frame was taken from. The restored SM then runs to
// drain beside the uninterrupted one, and both machine state and
// statistics must match it.
func TestRestoreRebuildsSleep(t *testing.T) {
	quick := program.NewBuilder().Bar().MustBuild()
	chain := func(lb *program.Builder) { lb.SFU(4, 4) }
	slow := program.NewBuilder().Loop(8, chain).Bar().Loop(8, chain).MustBuild()
	progs := []*program.Program{quick, slow, quick, quick}
	progFor := func(gid int64) (*program.Program, error) { return progs[gid], nil }

	cfg := lockstepCfg(t, config.SchedGTO)
	a := newTwin(t, cfg, specOf(progs, 16, 0))
	c := int64(0)
	for ; a.awake&0b1101 != 0 || a.sleeps(1); c++ {
		if c > 1000 {
			t.Fatal("sub-cores 0, 2 and 3 never slept while 1 ran; the block no longer parks its quick warps")
		}
		a.Tick(c)
	}
	a.Sync(c)
	frame := snapSMState(t, a.SM, a.hier)
	counters, err := json.Marshal(a.run)
	if err != nil {
		t.Fatal(err)
	}

	// The statistics ride the device's frame, not the SM's: decode them in
	// place, so the SM's pointers into the run stay valid.
	run := stats.NewRun(1, cfg.SubCoresPerSM)
	if err := json.Unmarshal(counters, run); err != nil {
		t.Fatal(err)
	}
	hier := mem.NewHierarchy(cfg)
	b := twin{NewSM(0, &cfg, hier, run), hier, run}
	if err := restoreSMState(t, b.SM, b.hier, frame, progFor); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i, sc := range b.subcores {
		if q := sc.quiescent(b.Synced()); b.sleeps(i) != q {
			t.Fatalf("restored sub-core %d: asleep %t, quiescent %t", i, b.sleeps(i), q)
		}
	}
	if a.awake != b.awake {
		t.Fatalf("restored awake mask %#b, the SM the frame was taken from has %#b", b.awake, a.awake)
	}
	if vs := b.Audit(); len(vs) != 0 {
		t.Fatalf("audit violations immediately after restore: %v", vs)
	}
	for ; !a.Drained(); c++ {
		if c > 10000 {
			t.Fatal("SM did not drain")
		}
		a.Tick(c)
		b.Tick(c)
	}
	if !b.Drained() {
		t.Fatal("the uninterrupted SM drained but the restored one did not")
	}
	if !sameState(t, a, b, c) {
		t.Fatalf("machine state at drain differs from the uninterrupted SM's")
	}
	if ok, ja, jb := sameStats(t, a, b); !ok {
		t.Fatalf("statistics differ at drain:\nrestored:      %s\nuninterrupted: %s", jb, ja)
	}
}
