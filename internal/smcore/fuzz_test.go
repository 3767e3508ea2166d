package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// FuzzSMExecution decodes arbitrary bytes into a program + block shape
// and asserts the SM's global invariants: it always drains, issues
// exactly the dynamic instruction count, and restores every resource;
// every sub-core's CPI stack (internal/stats/cpi.go) is non-negative and
// sums to the ticks its issue stage ran; and an SM ticked only at its wake
// cycles matches one ticked every cycle (wakeTwin). The warp byte's spare
// bits draw the warp scheduler (GTO, LRR, RBA) and bank stealing, so every
// check runs the issue stage under every policy.
func FuzzSMExecution(f *testing.F) {
	f.Add([]byte{4, 8, 1, 2, 3, 0, 1, 2}, uint8(4), uint8(16))
	f.Add([]byte{2, 0, 0}, uint8(1), uint8(8))
	f.Add([]byte{9, 4, 4, 4, 2, 2, 1, 3, 0, 1}, uint8(12), uint8(32))
	f.Add([]byte{0, 4, 0, 6, 1, 8, 0, 4, 5, 0, 0, 6}, uint8(15|1<<4), uint8(16))      // LRR
	f.Add([]byte{0, 4, 0, 6, 1, 8, 0, 4, 5, 0, 0, 6}, uint8(15|2<<4|1<<6), uint8(16)) // RBA + stealing
	// The CPI stack's seeds, under GTO and under RBA.
	for _, rba := range []uint8{0, 2 << 4} {
		f.Add([]byte{4, 8, 1, 2, 3, 0, 1, 2}, 4|rba, uint8(16))
		f.Add([]byte{3, 5, 3, 7, 5, 9}, 9|rba, uint8(24))
		f.Add([]byte{9, 4, 4, 4, 2, 2, 1, 3, 0, 1}, 12|rba, uint8(32))
	}
	f.Fuzz(func(t *testing.T, code []byte, warps, regs uint8) {
		nw := int(warps%16) + 1
		rpt := int(regs%48) + 8
		b := program.NewBuilder()
		emitted := 0
		for i := 0; i+1 < len(code) && emitted < 24; i += 2 {
			op := code[i] % 6
			r := isa.Reg(code[i+1]%16 + 4)
			switch op {
			case 0:
				b.FMA(r, 1, 2, r)
			case 1:
				b.IADD(r, 1, r)
			case 2:
				b.SFU(r, r)
			case 3:
				b.LDG(r, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 14, Shared: true})
			case 4:
				b.Tensor(r, 1, 2, r)
			case 5:
				b.Bar()
			}
			emitted++
		}
		if emitted == 0 {
			return
		}
		p := b.MustBuild()

		sched := [...]config.WarpSched{config.SchedGTO, config.SchedLRR, config.SchedRBA}[int(warps>>4&3)%3]
		cfg := lockstepCfg(t, sched)
		cfg.BankStealing = warps>>6&1 != 0
		run := stats.NewRun(1, cfg.SubCoresPerSM)
		sm := NewSM(0, &cfg, mem.NewHierarchy(cfg), run)

		progs := make([]*program.Program, nw)
		for i := range progs {
			progs[i] = p
		}
		spec := &BlockSpec{Programs: progs, RegsPerThread: rpt}
		if !sm.CanAccept(spec) {
			return // infeasible shapes are allowed to be refused
		}
		if err := sm.Allocate(spec); err != nil {
			t.Fatalf("CanAccept/Allocate disagree: %v", err)
		}
		var ticks int64
		for c := int64(0); ; c++ {
			sm.Tick(c)
			ticks++
			if sm.Drained() {
				break
			}
			if c > 500000 {
				t.Fatalf("SM failed to drain: %d warps, %d regs, prog len %d", nw, rpt, p.Len())
			}
		}
		for j := range run.SMs[0].SubCores {
			st := run.SMs[0].SubCores[j].CPI()
			for comp, v := range st {
				if v < 0 {
					t.Fatalf("sub-core %d: negative %s = %d", j, stats.CPIComponent(comp), v)
				}
			}
			if st.Total() != ticks {
				t.Fatalf("sub-core %d: CPI total %d != %d ticks (stack %v)", j, st.Total(), ticks, st)
			}
		}
		var issued int64
		for i := range run.SMs[0].SubCores {
			issued += run.SMs[0].SubCores[i].Issued
		}
		if issued != int64(nw)*p.Len() {
			t.Fatalf("issued %d, want %d", issued, int64(nw)*p.Len())
		}
		if sm.ResidentWarps() != 0 {
			t.Fatal("warps leaked")
		}
		for _, sc := range sm.subcores {
			if len(sc.order) != 0 || sc.freeRegBytes != cfg.RegFileKBPerSubCore*1024 {
				t.Fatal("sub-core resources leaked")
			}
		}
		wakeTwin(t, cfg, p, nw, rpt, false)
	})
}
