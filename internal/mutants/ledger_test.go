// Package mutants is the ledger of seeded mistakes: each entry is a small
// edit to the tree and the tests (or the simlint analyzer) that must report
// it. Tier-1 checks that every entry still applies to the tree and names
// killers that exist; run_test.go, under the mutants build tag, applies
// every entry and requires each named killer to fail:
//
//	go test -tags mutants -count=1 -v ./internal/mutants
//
// An entry records why a test or a guard is worth keeping. A test that
// would kill nothing here, or an analyzer with no entry it alone kills, is
// a candidate for deletion (docs/STATIC_ANALYSIS.md).
package mutants

// Edit replaces Old, which must occur exactly once in File (relative to the
// module root), with New.
type Edit struct{ File, Old, New string }

// Mutant is one seeded mistake and the checks that must report it.
type Mutant struct {
	// Name identifies the entry; the docs cite it.
	Name string
	// Mistake says what the edits do, in the terms of the model.
	Mistake string
	Edits   []Edit
	// Tests maps a package directory relative to the module root ("." for
	// the root package) to the top-level tests or fuzz targets in it that
	// must each print --- FAIL under the mutant. Only killers that fail on
	// every run are named: a test that fails under one map order is not.
	// Nor need every failing test be: the root package's end-to-end tests,
	// the slowest to re-run, are named only where the mistake's own
	// package has no killer.
	Tests map[string][]string
	// Simlint is the analyzer that must report the mutant in an edited
	// file, or "".
	Simlint string
}

// ledger is every recorded mutant, grouped by what it breaks.
var ledger = []Mutant{
	// The cache: replacement and placement, which the audit's cache law
	// cannot see (docs/ROBUSTNESS.md, "The auditor").
	{
		Name:    "cache-victim-last-smallest",
		Mistake: "a read miss evicts the last way with the smallest stamp, not the first",
		Edits:   []Edit{{"internal/mem/cache.go", "if u := use[i]; u < oldest {", "if u := use[i]; u <= oldest {"}},
		Tests: map[string][]string{
			"internal/mem": {"TestCacheMatchesReference"},
			"internal/gpu": {"TestFrameBytesUnchanged"},
		},
	},
	{
		Name:    "cache-mask-any-set-count",
		Mistake: "the set index is masked whatever the set count, not only for a power of two",
		Edits:   []Edit{{"internal/mem/cache.go", "if n&(n-1) == 0 {", "if n > 0 {"}},
		Tests: map[string][]string{
			"internal/mem": {"TestCacheMatchesReference"},
			"internal/gpu": {"TestParentFramesReencode"},
		},
	},
	{
		Name:    "cache-hit-keeps-stamp",
		Mistake: "a hit does not restamp its way",
		Edits:   []Edit{{"internal/mem/cache.go", "\t\t\tuse[i] = c.clock\n", ""}},
		Tests: map[string][]string{
			"internal/mem": {"TestCacheMatchesReference", "TestCacheLRUEviction"},
			"internal/gpu": {"TestParentFramesReencode"},
		},
	},

	// The policies: a different pick or placement is a different, equally
	// consistent machine, so only the reference twins and pins see it.
	{
		Name:    "srr-table-of-n",
		Mistake: "SRR's table has N entries, not N², so SRR becomes round robin",
		Edits:   []Edit{{"internal/core/assign.go", "t = make([]uint8, subCores*subCores)", "t = make([]uint8, subCores)"}},
		Tests: map[string][]string{
			"internal/core": {"TestAssignerMatchesReference", "TestNewAssignerFactory", "TestSRRMatchesEquation1", "TestSRRSpreadsEveryFourthWarp"},
			"internal/gpu":  {"TestSRRFixesOneInFourImbalance"},
			"internal/exp":  {"TestSec1EffectsShape", "TestFig8Shape", "TestFig17Shape"},
		},
	},
	{
		Name:    "gto-state-without-have-last",
		Mistake: "GTO's snapshot word drops the have-last bit, so a restored GTO forgets its greedy warp",
		Edits:   []Edit{{"internal/core/sched.go", "return 1 | uint64(s.last)<<1", "return uint64(s.last) << 1"}},
		Tests: map[string][]string{
			"internal/core":   {"TestWarpSchedulerMatchesReference"},
			"internal/gpu":    {"TestFrameBytesUnchanged", "TestParentFramesReencode", "TestSnapshotResumeInert"},
			"internal/smcore": {"TestSMRoundTrip"},
		},
	},
	{
		Name:    "rba-walk-stops-at-first-ready",
		Mistake: "the RBA walk stops at the first ready warp whatever its score",
		Edits:   []Edit{{"internal/core/sched.go", "\t\t\tif score == 0 {\n\t\t\t\tbreak\n\t\t\t}\n", "\t\t\tbreak\n"}},
		Tests: map[string][]string{
			"internal/core": {"TestWarpSchedulerMatchesReference", "TestPickReadyMatchesPickOnLists", "TestRBALowestScoreThenOldest", "TestRBAPrefersIdleBanks"},
		},
	},
	{
		Name:    "release-keeps-age-order-slot",
		Mistake: "release leaves its slot in the age order, so a reused slot is walked at its last warp's age",
		Edits:   []Edit{{"internal/smcore/subcore.go", "sc.order = slices.Delete(sc.order, i, i+1)", "_ = i"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestReadySetMatchesFullScan", "TestReadySetRebuiltOnRestore", "TestHostIntoFreedSlotsZeroAlloc"},
			"internal/gpu":    {"TestAuditedRunIsCleanAndUnperturbed"},
		},
	},
	{
		Name:    "retired-block-slot-zeroed-whole",
		Mistake: "a retired block slot is zeroed whole, so the next block placed in it grows a new warp list",
		Edits:   []Edit{{"internal/smcore/sm.go", "*blk = block{warpIdxs: blk.warpIdxs[:0]}", "*blk = block{}"}},
		Tests:   map[string][]string{"internal/smcore": {"TestAllocateIntoRetiredSlotZeroAlloc"}},
	},
	{
		Name:    "audit-skips-age-order",
		Mistake: "the readyset law does not check the age order the schedulers walk",
		Edits:   []Edit{{"internal/smcore/audit.go", "if !inOrder {", "if false && !inOrder {"}},
		Tests:   map[string][]string{"internal/smcore": {"TestAuditCatchesStaleAge"}},
	},
	{
		Name:    "lrr-scans-from-last",
		Mistake: "LRR scans from the last issuer, not one past it",
		Edits:   []Edit{{"internal/core/sched.go", "ahead := ready &^ (1<<uint(s.last+1) - 1)", "ahead := ready &^ (1<<uint(s.last) - 1)"}},
		Tests: map[string][]string{
			"internal/core": {"TestWarpSchedulerMatchesReference", "TestPickReadyMatchesPickOnLists", "TestLRRRotation"},
		},
	},

	// The writeback heap: its array order decides which of two same-cycle
	// writebacks reaches a bank's write port first, and a frame carries it.
	{
		Name:    "wbheap-push-passes-ties",
		Mistake: "push lifts an entry past a parent of the same cycle",
		Edits:   []Edit{{"internal/smcore/sm.go", "if q[parent].cycle <= e.cycle {", "if q[parent].cycle < e.cycle {"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestWBHeapMatchesSwapHeap"},
		},
	},
	{
		Name:    "wbheap-drain-prefers-right-tie",
		Mistake: "the drain's sift takes the right child on a tie",
		Edits:   []Edit{{"internal/smcore/sm.go", "r < n && q[r].cycle < q[c].cycle {", "r < n && q[r].cycle <= q[c].cycle {"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestWBHeapMatchesSwapHeap"},
		},
	},
	{
		Name:    "wbheap-drain-sift-passes-ties",
		Mistake: "the drain's sift stops on > instead of >=, so a tie lifts the child past the moved last entry",
		Edits:   []Edit{{"internal/smcore/sm.go", "if c >= n || q[c].cycle >= last.cycle {", "if c >= n || q[c].cycle > last.cycle {"}},
		Tests:   map[string][]string{"internal/smcore": {"TestWBHeapMatchesSwapHeap"}},
	},

	// Sleep: a guard that fires a cycle late makes another consistent
	// machine, so only the pinned frames and digests see it.
	{
		Name:    "sleep-issue-walk-stale-mask",
		Mistake: "the issue walk steps through the mask it started with instead of re-reading the awake mask",
		Edits:   []Edit{{"internal/smcore/sm.go", "m = sm.awake &^ (2<<uint(i) - 1)", "m &= m - 1"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSubCoreMidCycleWake", "TestNextEventContractEveryCycle", "FuzzSMExecution"},
			"internal/gpu":    {"TestSnapshotResumeInert", "TestFastForwardUnevenSMs"},
		},
	},
	{
		Name:    "sleep-lsu-guard-late",
		Mistake: "the LSU is served only once its port was free before this cycle",
		Edits:   []Edit{{"internal/smcore/sm.go", "len(l.queue) > 0 && l.portFree <= now {", "len(l.queue) > 0 && l.portFree < now {"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestAuditCatchesUnsoundSleep"},
			"internal/gpu":    {"TestFrameBytesUnchanged", "TestParentFramesReencode"},
		},
	},
	{
		Name:    "sleep-drain-guard-late",
		Mistake: "the writeback drain runs only once the root is overdue",
		Edits:   []Edit{{"internal/smcore/sm.go", "if len(sm.wb) > 0 && sm.wb[0].cycle <= now {", "if len(sm.wb) > 0 && sm.wb[0].cycle < now {"}},
		Tests: map[string][]string{
			"internal/gpu": {"TestFrameBytesUnchanged", "TestParentFramesReencode"},
		},
	},
	{
		Name:    "sleep-rest-never-sets",
		Mistake: "rest only clears awake bits, so a restored SM's mask comes back empty",
		Edits:   []Edit{{"internal/smcore/subcore.go", "\t\tsc.sm.awake |= bit\n", ""}},
		Tests: map[string][]string{
			"internal/smcore":  {"TestRestoreRebuildsSleep", "TestReadySetRebuiltOnRestore", "TestSMRoundTrip"},
			"internal/gpu":     {"TestSnapshotResumeInert", "TestSnapshotResumeConcurrentBatch"},
			"internal/harness": {"TestCanceledCellResumesFromFinalSnapshot", "TestFrameWriterCanceledInFlightResumes"},
		},
	},
	{
		Name:    "refill-on-park",
		Mistake: "a warp issuing BAR or EXIT refills its instruction buffer",
		Edits:   []Edit{{"internal/smcore/subcore.go", "\tif !in.Op.IsExit() && !in.Op.IsBarrier() {\n\t\tfill(w)\n\t}\n", "\t_ = in\n\tfill(w)\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestParkedWarpKeepsItsBuffer"},
			"internal/exp":    {"TestParkedWarpFrameUnchanged"},
		},
	},
	{
		Name:    "consume-reads-head-after-advance",
		Mistake: "issue steps the cursor before reading the head, so the instruction after BAR or EXIT decides whether the warp parks",
		Edits:   []Edit{{"internal/smcore/subcore.go", "\tin, _ := w.Cursor.Next()\n", "\tw.Cursor.Next()\n\tin := *w.Cursor.Head()\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestParkedWarpKeepsItsBuffer"},
		},
	},

	// Knob liveness: a field nothing reads, or a value quietly rewritten,
	// is two MachineIDs for one machine.
	{
		Name:    "knob-unread-field",
		Mistake: "an int field added to config.GPU that nothing reads",
		Edits:   []Edit{{"internal/config/config.go", "\tTensorPerSubCore int\n", "\tTensorPerSubCore int\n\tFoo              int\n"}},
		Tests:   map[string][]string{".": {"TestKnobLiveness"}},
	},
	{
		Name:    "knob-shuffle-table-fixed",
		Mistake: "NewAssigner ignores tableEntries: a 16-slot Shuffle table always",
		Edits:   []Edit{{"internal/core/assign.go", "slots := tableEntries * 4", "slots := 4 * 4"}},
		Tests:   map[string][]string{".": {"TestKnobLiveness"}},
	},
	{
		Name:    "knob-dispatch-ports-fixed",
		Mistake: "the collector stage gets two dispatch ports whatever the configuration says",
		Edits:   []Edit{{"internal/smcore/subcore.go", "c, ports := sc.coll, sc.cfg.DispatchPortsPerSubCore", "c, ports := sc.coll, 2"}},
		Tests:   map[string][]string{".": {"TestKnobLiveness"}},
	},
	{
		Name:    "knob-tensor-clamp",
		Mistake: "newSubCore clamps TensorPerSubCore to 1 and Validate's row for it is gone",
		Edits: []Edit{
			{"internal/config/config.go", "\t\t{g.TensorPerSubCore >= 1, \"TensorPerSubCore must be >= 1\"},\n", ""},
			{"internal/smcore/subcore.go", "pipes(4, cfg.TensorPerSubCore)", "pipes(4, max(cfg.TensorPerSubCore, 1))"},
		},
		Tests: map[string][]string{"internal/config": {"TestValidateCatchesViolations"}},
	},

	// The frame writer's wait points (docs/ROBUSTNESS.md, "Resume stores").
	{
		Name:    "writer-discard-without-wait",
		Mistake: "discard removes the frame without waiting for the one in flight",
		Edits:   []Edit{{"internal/harness/snapshot.go", "\tc.settle()\n\tos.Remove(c.path)\n", "\tos.Remove(c.path)\n"}},
		Tests: map[string][]string{
			// TestFrameWriterCanceledInFlightResumes and TestChaosSweepWithSnapshots
			// fail too when the frame is still in flight at the discard, which
			// depends on how fast the disk syncs.
			"internal/harness": {"TestFrameWriterDiscardWaits"},
		},
	},
	{
		Name:    "writer-one-buffer",
		Mistake: "every frame is encoded into buffer 0, the one in flight included",
		Edits:   []Edit{{"internal/harness/snapshot.go", "buf := &c.bufs[c.frames%2]", "buf := &c.bufs[0]"}},
		Tests:   map[string][]string{"internal/harness": {"TestFrameWriterEncodesBesideTheFrameInFlight"}},
	},
	{
		Name:    "writer-counts-at-hand-off",
		Mistake: "sweep_snapshot_writes_total is bumped at hand-off, not when the write is seen to land",
		Edits: []Edit{
			{"internal/harness/snapshot.go", "\t\treturn\n\t}\n\tc.sm.snapWrites.Inc()\n", "\t\treturn\n\t}\n"},
			{"internal/harness/snapshot.go", "\tc.frames++\n", "\tc.frames++\n\tc.sm.snapWrites.Inc()\n"},
		},
		Tests: map[string][]string{"internal/harness": {"TestFrameWriterPersistFailure", "TestFrameWriterRenameFailureLeavesNoTemp"}},
	},
	{
		Name:    "writer-no-wait-on-exit",
		Mistake: "the cell returns without waiting for the frame in flight",
		Edits:   []Edit{{"internal/harness/harness.go", "\tdefer snap.settle() // no way out of the cell leaves a frame half-written\n", ""}},
		Tests: map[string][]string{
			"internal/harness": {"TestCanceledCellResumesFromFinalSnapshot", "TestFrameWriterCanceledInFlightResumes"},
		},
	},

	// Allocation on the per-cycle path: TestCycleLoopZeroAlloc compares two
	// runs that differ only in trip count, over every per-cycle path.
	{
		Name:    "alloc-in-lsu-serve",
		Mistake: "LSU.serve allocates on every call",
		Edits: []Edit{
			{"internal/smcore/lsu.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/smcore/lsu.go", "func (l *LSU) serve(now int64) {\n", "func (l *LSU) serve(now int64) {\n\t_ = fmt.Sprint(now)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-access-global",
		Mistake: "Hierarchy.AccessGlobal allocates on every call",
		Edits: []Edit{
			{"internal/mem/hierarchy.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/mem/hierarchy.go", "func (h *Hierarchy) AccessGlobal(sm int, addr uint64, write bool, now int64) int64 {\n", "func (h *Hierarchy) AccessGlobal(sm int, addr uint64, write bool, now int64) int64 {\n\t_ = fmt.Sprint(now)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-mshr-insert",
		Mistake: "mshr.insert allocates on every call",
		Edits: []Edit{
			{"internal/mem/hierarchy.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/mem/hierarchy.go", "func (m *mshr) insert(i int, line uint64, done, now int64) {\n", "func (m *mshr) insert(i int, line uint64, done, now int64) {\n\t_ = fmt.Sprint(now)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-barrier-release",
		Mistake: "SM.checkBarrierRelease allocates on every call",
		Edits: []Edit{
			{"internal/smcore/sm.go", "func (sm *SM) checkBarrierRelease(blk *block, w *Warp, now int64) {\n", "func (sm *SM) checkBarrierRelease(blk *block, w *Warp, now int64) {\n\t_ = fmt.Sprint(now)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-can-accept",
		Mistake: "SM.CanAccept allocates on every call",
		Edits: []Edit{
			{"internal/smcore/sm.go", "func (sm *SM) CanAccept(b *BlockSpec) bool {\n", "func (sm *SM) CanAccept(b *BlockSpec) bool {\n\t_ = fmt.Sprint(sm.synced)\n"},
		},
		Tests: map[string][]string{"internal/smcore": {"TestCanAcceptZeroAlloc"}},
	},
	{
		Name:    "alloc-in-pick-ready",
		Mistake: "WarpScheduler.PickReady allocates on every call",
		Edits: []Edit{
			{"internal/core/sched.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/core/sched.go", "func (s *WarpScheduler) PickReady(ready uint64, order []uint8, banks *[MaxSlots][3]uint16, qlen []int) int {\n", "func (s *WarpScheduler) PickReady(ready uint64, order []uint8, banks *[MaxSlots][3]uint16, qlen []int) int {\n\t_ = fmt.Sprint(order)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-steal-tick",
		Mistake: "SubCore.stealTick allocates on every call",
		Edits: []Edit{
			{"internal/smcore/subcore.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/smcore/subcore.go", "func (sc *SubCore) stealTick() {\n", "func (sc *SubCore) stealTick() {\n\t_ = fmt.Sprint(sc.coll.Cycle())\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-fast-forward",
		Mistake: "SubCore.fastForward allocates on every call",
		Edits: []Edit{
			{"internal/smcore/subcore.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/smcore/subcore.go", "func (sc *SubCore) fastForward(now int64) {\n", "func (sc *SubCore) fastForward(now int64) {\n\t_ = fmt.Sprint(now)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-decode-tick",
		Mistake: "SubCore.decodeTick allocates on every call",
		Edits: []Edit{
			{"internal/smcore/subcore.go", "import (\n", "import (\n\t\"fmt\"\n"},
			{"internal/smcore/subcore.go", "func (sc *SubCore) decodeTick() {\n", "func (sc *SubCore) decodeTick() {\n\t_ = fmt.Sprint(sc.coll.Cycle())\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-emit",
		Mistake: "SMT.Emit allocates on every call",
		Edits: []Edit{
			{"internal/trace/trace.go", "func (h *SMT) Emit(k Kind, sub int8, warp, a, b int32) {\n", "func (h *SMT) Emit(k Kind, sub int8, warp, a, b int32) {\n\t_ = fmt.Sprint(a)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "alloc-in-delayed-queue-len",
		Mistake: "Collector.DelayedQueueLen allocates on every call",
		Edits: []Edit{
			{"internal/regfile/regfile.go", "func (c *Collector) DelayedQueueLen(b, delay int) int {\n", "func (c *Collector) DelayedQueueLen(b, delay int) int {\n\t_ = fmt.Sprint(c.cycle)\n"},
		},
		Tests: map[string][]string{"internal/gpu": {"TestCycleLoopZeroAlloc"}},
	},

	// The per-cycle helpers' inline budget: each mistake computes the same
	// thing, one call slower.
	{
		Name:    "inline-enqueue-write-sprintf",
		Mistake: "Collector.EnqueueWrite checks the bank with a formatted panic, which puts it over the inline budget",
		Edits: []Edit{{"internal/regfile/regfile.go", "func (c *Collector) EnqueueWrite(w WriteReq) {\n",
			"func (c *Collector) EnqueueWrite(w WriteReq) {\n\tif int(w.Bank) < 0 || int(w.Bank) >= c.banks {\n\t\tpanic(fmt.Sprintf(\"regfile: write to bank %d of %d\", w.Bank, c.banks))\n\t}\n"}},
		Tests: map[string][]string{"internal/smcore": {"TestPerCycleHelpersInline"}},
	},

	// The stall accounting behind the CPI stack.
	{
		Name:    "cpi-idle-folded-into-imbalance",
		Mistake: "the idle slice of the CPI stack is counted as imbalance",
		Edits: []Edit{{"internal/stats/cpi.go", "c[CPIImbalance] = s.StallCycles[StallNoWarp] - s.SMIdleCycles\n\tc[CPIIdle] = s.SMIdleCycles\n",
			"c[CPIImbalance] = s.StallCycles[StallNoWarp]\n"}},
		Tests: map[string][]string{"internal/stats": {"TestCPIMapping"}},
	},
	{
		Name:    "cpi-drops-scoreboard-term",
		Mistake: "SubCore.CPI leaves scoreboard stalls out of the stack",
		Edits:   []Edit{{"internal/stats/cpi.go", "\tc[CPIScoreboard] = s.StallCycles[StallScoreboard]\n", ""}},
		Tests: map[string][]string{
			"internal/stats":  {"TestCPIMapping"},
			"internal/smcore": {"FuzzSMExecution"},
			".":               {"TestCPIStackInvariant"},
		},
	},
	{
		Name:    "cpi-new-reason-uncounted",
		Mistake: "a new stall reason, charged when every warp has finished, that SubCore.CPI does not map",
		Edits: []Edit{
			{"internal/stats/stats.go", "\tStallBarrier\n\n\tNumStallReasons\n", "\tStallBarrier\n\tStallDrained\n\n\tNumStallReasons\n"},
			{"internal/smcore/subcore.go", "\t\tsc.st.IdleAllFinished += n\n\t}\n", "\t\tsc.st.IdleAllFinished += n\n\t\treturn stats.StallDrained\n\t}\n"},
		},
		Tests: map[string][]string{
			"internal/smcore": {"FuzzSMExecution"},
			".":               {"TestCPIStackInvariant"},
		},
	},

	// Guards whose analyzers were deleted, each for a test that kills its
	// mutant (docs/STATIC_ANALYSIS.md, the audit).
	{
		Name:    "trace-unguarded-issue-emit",
		Mistake: "the issue event is emitted without the nil-tracer guard",
		Edits: []Edit{{"internal/smcore/subcore.go",
			"\t\t\t\tif sc.tr != nil {\n\t\t\t\t\tsc.tr.Emit(trace.KIssue, int8(sc.id), wIdx, int32(op), int32(slot))\n\t\t\t\t}\n",
			"\t\t\t\tsc.tr.Emit(trace.KIssue, int8(sc.id), wIdx, int32(op), int32(slot))\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestNextEventContractEveryCycle"},
			"internal/gpu":    {"TestFastForwardByteIdentity"},
		},
	},
	{
		Name:    "monitor-beat-dropped",
		Mistake: "the heartbeat neither publishes its cycle nor polls for a cancel",
		Edits:   []Edit{{"internal/gpu/gpu.go", "canceled := g.mon.beat(g.cycle)", "canceled := false"}},
		Tests: map[string][]string{
			"internal/gpu": {"TestMonitorCancel", "TestMonitorHeartbeat", "TestFastForwardMonitorHeartbeat", "TestFastForwardArmedCancelIdentity"},
		},
	},
	{
		Name:    "config-written-after-new",
		Mistake: "an SM rewrites the configuration every SM shares between kernels",
		Edits:   []Edit{{"internal/smcore/sm.go", "func (sm *SM) ResetForKernel() {\n", "func (sm *SM) ResetForKernel() {\n\tsm.cfg.RBAScoreLatency = 0\n"}},
		Tests:   map[string][]string{"internal/gpu": {"TestAuditedRunIsCleanAndUnperturbed"}},
	},
	{
		Name:    "audit-skips-hierarchy",
		Mistake: "the device auditor checks the SMs, the CPI stack and the configuration but not the memory hierarchy",
		Edits:   []Edit{{"internal/gpu/audit.go", "\tvs = append(vs, g.hier.Audit()...)\n", ""}},
		Tests:   map[string][]string{"internal/gpu": {"TestAuditCatchesArmedCorruption"}},
	},
	{
		Name:    "nextevent-drops-staged-units",
		Mistake: "Collector.NextEvent counts queued reads and writebacks but not a staged collector unit",
		Edits:   []Edit{{"internal/regfile/regfile.go", "\tif c.busy > 0 {\n\t\treturn now\n\t}\n\treturn neverCycle\n", "\tif c.busy > bits.OnesCount64(^c.free&(1<<uint(len(c.cus))-1)) {\n\t\treturn now\n\t}\n\treturn neverCycle\n"}},
		Tests:   map[string][]string{"internal/smcore": {"TestNextEventContractEveryCycle"}},
	},
	{
		Name:    "restore-trusts-warp-slots",
		Mistake: "SM.RestoreState does not hold the restored SM to its Audit, so a frame whose warps and slot tables disagree restores",
		Edits: []Edit{{"internal/smcore/snapshot.go", "return audit.Refusal(fmt.Sprintf(\"smcore: sm%d\", sm.id), sm.Audit())",
			"return audit.Refusal(fmt.Sprintf(\"smcore: sm%d\", sm.id), sm.Audit()[:0])"}},
		Tests: map[string][]string{"internal/smcore": {"TestSMRestoreRefusesMisplacedWarp", "TestSMRestoreRefusesBadWritebackHeap"}},
	},
	{
		Name:    "restore-trusts-slot-tables",
		Mistake: "the residency law checks neither that a resident warp's block lists it nor that a block lists only warps that claim it",
		Edits: []Edit{
			{"internal/smcore/audit.go", "if w := &sm.warps[wi]; w.State == WarpEmpty || int(w.BlockSlot) != bi || listed[wi] {",
				"if w := &sm.warps[wi]; false && (w.State == WarpEmpty || int(w.BlockSlot) != bi || listed[wi]) {"},
			{"internal/smcore/audit.go", "} else if !listed[i] {", "} else if false && !listed[i] {"},
		},
		Tests: map[string][]string{"internal/smcore": {"TestSMRestoreRefusesMisplacedWarp"}},
	},
	{
		Name:    "restore-skips-stolen-links",
		Mistake: "restore does not link a warp to its stolen collector unit, so the warp would issue into a second unit and strand the first",
		Edits:   []Edit{{"internal/smcore/snapshot.go", "\t\t\t\tsm.warps[u.WarpIdx].StolenCU = int8(i)\n", "\t\t\t\t_ = i\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSMRoundTrip"},
			"internal/gpu":    {"TestSnapshotResumeInert"},
		},
	},
	{
		Name:    "audit-skips-stolen-head",
		Mistake: "the lease law holds a stolen unit to its warp's link only, not to that warp's head instruction and sub-core",
		Edits: []Edit{{"internal/smcore/audit.go", "int(w.StolenCU) != i || int(w.SubCore) != sc.id || w.IBufN == 0 || *w.Cursor.Head() != u.Instr {",
			"int(w.StolenCU) != i {"}},
		Tests: map[string][]string{"internal/smcore": {"TestSMRestoreRefusesForeignStolenUnit"}},
	},
	{
		Name:    "scoreboard-law-counts-staged-store",
		Mistake: "the scoreboard law counts a staged STS or STG's destination, which no writeback clears, so a frame whose staged load reads as a store restores and its warp never exits",
		Edits:   []Edit{{"internal/smcore/audit.go", " && (u.Instr.Op.UnitOf() != isa.ClassMEM || willWriteBack(&u.Instr))", ""}},
		Tests:   map[string][]string{"internal/smcore": {"TestSMRestoreRefusesMisplacedWarp"}},
	},
	{
		Name:    "draw-replay-one-short",
		Mistake: "restore replays a warp's draws one step short, so its next random line is not the uninterrupted run's",
		Edits:   []Edit{{"internal/smcore/snapshot.go", "for w.Draws = 0; w.Draws < wf.Draws; {", "for w.Draws = 1; w.Draws < wf.Draws; {"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSMRestoreReplaysDraws"},
			"internal/gpu":    {"TestParentFramesReencode"},
		},
	},
	{
		Name:    "draws-unbounded",
		Mistake: "restore replays whatever draw count a frame gives, so one frame can keep it looping for centuries",
		Edits:   []Edit{{"internal/smcore/snapshot.go", "wf.Draws > isa.WarpSize*wf.MemCounter:", "wf.Draws > isa.WarpSize*wf.MemCounter && false:"}},
		Tests:   map[string][]string{"internal/smcore": {"TestSMRestoreReplaysDraws"}},
	},
	{
		Name:    "memcounter-unbounded",
		Mistake: "restore takes any memory-access count, so the draw bound it scales stops bounding the replay",
		Edits:   []Edit{{"internal/smcore/snapshot.go", "wf.MemCounter > wf.Pos.Fetched:", "wf.MemCounter > wf.Pos.Fetched && false:"}},
		Tests:   map[string][]string{"internal/smcore": {"TestSMRestoreReplaysDraws"}},
	},
	{
		Name:    "freed-unit-keeps-residue",
		Mistake: "a dispatched collector unit keeps its warp, instruction and allocation cycle, so equal collectors encode to different bytes and a revived unit reissues its last instruction",
		Edits: []Edit{{"internal/regfile/regfile.go",
			"u.Valid, u.WarpIdx, u.SchedSlot, u.Instr = false, 0, 0, isa.Instr{}\n\tu.Bank, u.At, u.Stolen, u.AllocCycle = [3]int8{}, [3]int64{}, false, 0\n",
			"u.Valid = false\n"}},
		Tests: map[string][]string{
			"internal/regfile": {"TestDispatchedUnitIsZero"},
			"internal/smcore":  {"TestSMRestoreRefusesMisplacedWarp"},
		},
	},
	{
		Name:    "placement-probe-not-rearmed",
		Mistake: "the block scheduler is not probed again after a block retires",
		Edits:   []Edit{{"internal/gpu/gpu.go", "ls.probe = ls.probe || sm.ResidentWarps() < resident // a block retired", "_ = resident"}},
		Tests:   map[string][]string{"internal/gpu": {"TestFastForwardConcurrentIdentity", "TestCycleLoopZeroAlloc"}},
	},
	{
		Name:    "snapshot-assigner-counter-lost",
		Mistake: "a restored assigner restarts its warp counter instead of taking the frame's",
		Edits:   []Edit{{"internal/core/assign.go", "func (a *Assigner) SetState(w uint64) { a.w = int(w) }", "func (a *Assigner) SetState(w uint64) { a.w = 0 }"}},
		Tests:   map[string][]string{"internal/gpu": {"TestSnapshotResumeInert"}},
	},

	// Mid-cycle wakes and the collector's derived state: each wake source,
	// and each bit the ready mask is kept by.
	{
		Name:    "wake-charges-wrong-side",
		Mistake: "a sleeper woken mid-cycle is charged this cycle's stall when its turn is still to come, not when it has passed",
		Edits:   []Edit{{"internal/smcore/sm.go", "if sc.id < int(w.SubCore) {", "if sc.id > int(w.SubCore) {"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSubCoreMidCycleWake", "TestNextEventContractEveryCycle", "FuzzSMExecution"},
			"internal/gpu":    {"TestFastForwardByteIdentity", "TestFastForwardUnevenSMs", "TestSnapshotResumeInert"},
		},
	},
	{
		Name:    "wake-skips-collector-cycle",
		Mistake: "a sleeper woken mid-cycle does not advance its collector over this cycle's skipped stage",
		Edits:   []Edit{{"internal/smcore/sm.go", "\t\tsc.coll.FastForward(1)\n", ""}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSubCoreMidCycleWake", "TestNextEventContractEveryCycle"},
		},
	},
	{
		Name:    "wake-none-at-block-retire",
		Mistake: "sleepers stay asleep across a block's retirement",
		Edits:   []Edit{{"internal/smcore/sm.go", "\t\tsm.wakeSleepers(w, now)\n\t\tsm.retireBlock(blk)\n", "\t\tsm.retireBlock(blk)\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestSubCoreMidCycleWake", "TestFinishedWarpsHoldSlotsUntilBlockRetires"},
			"internal/gpu":    {"TestFastForwardByteIdentity", "TestFastForwardUnevenSMs"},
		},
	},
	{
		Name:    "wake-none-at-barrier-release",
		Mistake: "sleepers stay asleep across a barrier release",
		Edits:   []Edit{{"internal/smcore/sm.go", "\tsm.wakeSleepers(w, now)\n\tblk.barrierWaiting = 0\n", "\tblk.barrierWaiting = 0\n"}},
		Tests: map[string][]string{
			"internal/smcore": {"TestNextEventContractEveryCycle"},
		},
	},
	{
		Name:    "wake-none-at-writeback",
		Mistake: "a writeback into a sleeping sub-core's bank does not wake it",
		Edits:   []Edit{{"internal/smcore/sm.go", "\t\tif sm.sleeps(int(w.SubCore)) {\n\t\t\tsc.wake(now)\n\t\t}\n", ""}},
		Tests: map[string][]string{
			"internal/smcore": {"TestNextEventContractEveryCycle"},
		},
	},
	{
		Name:    "writeback-bank-ignores-offset",
		Mistake: "drain derives a writeback's bank from the register alone, not from its warp's bank offset, so a write contends at another bank than the one its operand reads use",
		Edits:   []Edit{{"internal/smcore/sm.go", "regfile.BankWithOffset(int(w.BankOff), e.reg,", "regfile.BankWithOffset(0, e.reg,"}},
		Tests:   map[string][]string{"internal/smcore": {"TestWBHeapMatchesSwapHeap"}},
	},
	{
		Name:    "wake-none-at-allocate",
		Mistake: "Allocate places warps on sub-cores it leaves asleep",
		Edits:   []Edit{{"internal/smcore/sm.go", "\tfor _, sc := range sm.subcores {\n\t\tsc.wake(sm.synced)\n\t}\n", ""}},
		Tests: map[string][]string{
			"internal/smcore": {"TestResetForKernel"},
			"internal/gpu":    {"TestSnapshotResumeInert"},
		},
	},
	{
		Name:    "sleep-under-no-fastforward",
		Mistake: "sub-cores sleep under NoFastForward too, so the reference twin is not a ticked machine",
		Edits:   []Edit{{"internal/smcore/subcore.go", "sc.cfg.NoFastForward || !sc.quiescent(now)", "!sc.quiescent(now)"}},
		Tests:   map[string][]string{"internal/smcore": {"TestSubCoreMidCycleWake"}},
	},
	{
		Name:    "ready-kept-at-dispatch",
		Mistake: "a dispatched collector unit keeps its ready bit",
		Edits:   []Edit{{"internal/regfile/regfile.go", "\tc.ready &^= 1 << uint(i)\n", ""}},
		Tests:   map[string][]string{"internal/regfile": {"TestCollectorAlwaysDrainsProperty", "TestDualPortedBanks"}},
	},
	{
		Name:    "ready-not-set-by-grant",
		Mistake: "the grant that collects a unit's last operand does not mark it ready",
		Edits:   []Edit{{"internal/regfile/regfile.go", "\t\t\tc.ready |= 1 << uint(i)\n\t\t\tc.waiting &^= 1 << uint(i)\n", "\t\t\tc.waiting &^= 1 << uint(i)\n"}},
		Tests:   map[string][]string{"internal/regfile": {"TestRingIsInert", "TestCollectorMatchesReference"}},
	},
	{
		Name:    "ready-not-set-without-sources",
		Mistake: "a unit allocated with no source operands is not ready",
		Edits:   []Edit{{"internal/regfile/regfile.go", "\tif !in.HasSrc() {\n\t\tc.ready |= 1 << uint(cu)\n\t} else {\n", "\tif !in.HasSrc() {\n\t} else {\n"}},
		Tests:   map[string][]string{"internal/regfile": {"TestZeroSourceAllocationIsImmediatelyReady"}},
	},
	{
		Name:    "reservation-starts-late",
		Mistake: "a normal read is reserved one cycle after its bank's next free read cycle",
		Edits:   []Edit{{"internal/regfile/regfile.go", "at := max(now, c.rfree[b])", "at := max(now+1, c.rfree[b])"}},
		Tests:   map[string][]string{"internal/regfile": {"TestCollectorMatchesReference"}},
	},
	{
		Name:    "stolen-read-on-reserved-port",
		Mistake: "a stolen read is granted on a read port a normal read holds that cycle",
		Edits:   []Edit{{"internal/regfile/regfile.go", "\t\t} else if len(c.stolen[b]) > 0 {\n", "\t\t}\n\t\tif len(c.stolen[b]) > 0 {\n"}},
		Tests:   map[string][]string{"internal/regfile": {"TestCollectorMatchesReference"}},
	},
	{
		Name:    "ring-position-not-landed",
		Mistake: "a fast-forward longer than the queue-length ring leaves its position where it was",
		Edits:   []Edit{{"internal/regfile/regfile.go", "if n > ring {", "if false && n > ring {"}},
		Tests:   map[string][]string{"internal/smcore": {"TestNextEventContractEveryCycle"}},
	},

	// The MSHR table and the LSU's addresses, each held to the code it
	// replaced (kept verbatim in its test).
	{
		Name:    "mshr-no-early-path",
		Mistake: "a fill inserted at or below the watermark is stored like any other",
		Edits:   []Edit{{"internal/mem/hierarchy.go", "\tif done <= m.retired {\n\t\tm.earlyLo, done = min(m.earlyLo, done), -done\n\t}\n", ""}},
		Tests:   map[string][]string{"internal/mem": {"TestMSHRMatchesReference"}},
	},
	{
		Name:    "mshr-no-watermark",
		Mistake: "a fill stays pending however far the watermark has passed it",
		Edits:   []Edit{{"internal/mem/hierarchy.go", "if d := m.done[i]; d < 0 || d > m.retired {\n\t\treturn max(d, -d)", "if d := m.done[i]; d != 0 {\n\t\treturn max(d, -d)"}},
		Tests:   map[string][]string{"internal/mem": {"TestMSHRMatchesReference"}},
	},
	{
		Name:    "mshr-scan-against-watermark",
		Mistake: "the early fills are retired against the watermark, not against now",
		Edits:   []Edit{{"internal/mem/hierarchy.go", "if d < 0 && -d <= now {", "if d < 0 && -d <= m.retired {"}},
		Tests:   map[string][]string{"internal/mem": {"TestMSHRMatchesReference"}},
	},
	{
		Name:    "mshr-lookup-keeps-dead",
		Mistake: "a lookup that finds a completed fill leaves it in its slot",
		Edits:   []Edit{{"internal/mem/hierarchy.go", "\tm.done[i] = 0 // complete, dead already, or a never-used slot\n", ""}},
		Tests:   map[string][]string{"internal/mem": {"TestMSHRMatchesReference"}},
	},
	{
		Name:    "mshr-early-scan-late",
		Mistake: "the early fills are scanned only once now is past the earliest of them",
		Edits:   []Edit{{"internal/mem/hierarchy.go", "if now >= m.earlyLo {", "if now > m.earlyLo {"}},
		Tests:   map[string][]string{"internal/mem": {"TestMSHRMatchesReference"}},
	},
	{
		Name:    "lsu-address-wrap-late",
		Mistake: "a streaming access wraps one line past its footprint",
		Edits:   []Edit{{"internal/smcore/lsu.go", "\t\tif k >= lines {\n", "\t\tif k > lines {\n"}},
		Tests:   map[string][]string{"internal/smcore": {"TestLSUAddressesUnchanged"}},
	},

	// Refusals: a value the simulator cannot model, or an option read as
	// another, fails before anything runs.
	{
		Name:    "validate-accepts-no-lsu-queue",
		Mistake: "Validate's LSUQueue row is gone, so an LSU with no queue runs to the cycle cap",
		Edits:   []Edit{{"internal/config/config.go", "\t\t{g.LSUQueue >= 1, \"LSUQueue must be >= 1 (no memory instruction could ever enter the LSU)\"},\n", ""}},
		Tests: map[string][]string{
			"internal/config":  {"TestValidateCatchesViolations"},
			"internal/harness": {"TestZeroLSUQueueFaultsAtCycleZero"},
		},
	},
	{
		Name:    "harness-accepts-negative-options",
		Mistake: "harness.Run reads a negative option as 0",
		Edits:   []Edit{{"internal/harness/harness.go", "\t\tif f.v < 0 {\n", "\t\tif f.v < 0 && false {\n"}},
		Tests:   map[string][]string{"internal/harness": {"TestRunRefusesNegativeOptions"}},
	},

	// What the harness keeps and discards when a cell fails.
	{
		Name:    "audit-fault-keeps-frame",
		Mistake: "an audit fault leaves the cell's frame, corruption and all, to be resumed",
		Edits: []Edit{{"internal/harness/harness.go", "\t\t\t// the auditor and checkpoints bad statistics without it.\n\t\t\tsnap.discard()\n",
			"\t\t\t// the auditor and checkpoints bad statistics without it.\n"}},
		Tests: map[string][]string{"internal/harness": {"TestAuditFaultDiscardsFrame"}},
	},
	{
		Name:    "deadline-fault-keeps-frame",
		Mistake: "a deadline fault leaves the cell's frame, whose launch carries the spent deadline",
		Edits: []Edit{{"internal/harness/harness.go", "\t\t\t// resumed, even under a raised cap, it re-faults at that cycle.\n\t\t\tsnap.discard()\n",
			"\t\t\t// resumed, even under a raised cap, it re-faults at that cycle.\n"}},
		Tests: map[string][]string{"internal/harness": {"TestDeadlineFault"}},
	},
	{
		Name:    "checkpoint-tail-not-repaired",
		Mistake: "a checkpoint is appended to without truncating a torn last line",
		Edits:   []Edit{{"internal/harness/checkpoint.go", "\tif err := repairTail(f); err != nil {\n\t\tf.Close()\n\t\treturn nil, fmt.Errorf(\"harness: repair checkpoint tail: %w\", err)\n\t}\n", ""}},
		Tests:   map[string][]string{"internal/harness": {"TestCheckpointAppendAfterTornTail"}},
	},
	{
		Name:    "guard-without-recover",
		Mistake: "harness.Guard lets an experiment driver's panic through (the same mistake in a sweep cell crashes the test binary from a worker goroutine, which names no test)",
		Edits:   []Edit{{"internal/harness/harness.go", "\t\tif v := recover(); v != nil {\n\t\t\terr = &SimFault{", "\t\tif v := any(nil); v != nil {\n\t\t\terr = &SimFault{"}},
		Tests:   map[string][]string{"internal/harness": {"TestGuard"}},
	},
	{
		Name:    "dump-names-unwritten-trace",
		Mistake: "a fault record names its trace file whether or not it was written",
		Edits:   []Edit{{"internal/harness/harness.go", "\ttracePath := \"\"\n", "\ttracePath := base + \".trace.json\"\n"}},
		Tests:   map[string][]string{"internal/harness": {"TestChaosSweep"}},
	},

	// The front end: what subcoresim prints for a cell is what the harness
	// writes down for it.
	{
		Name:    "record-labelled-by-name",
		Mistake: "the printed record is labelled with cfg.Name, not the -config entry the checkpoint keys",
		Edits: []Edit{{"cmd/subcoresim/main.go", "harness.NewRecord(app.Name, names[j], cfgs[j].MachineID(), r)",
			"harness.NewRecord(app.Name, cfgs[j].Name, cfgs[j].MachineID(), r)"}},
		Tests: map[string][]string{"cmd/subcoresim": {"TestRecordIsOneShape"}},
	},

	// The docs and the paper table: a verdict is computed, not typed, and a
	// doc names only tests and paths the tree has.
	{
		Name:    "doc-verdict-typed",
		Mistake: "EXPERIMENTS.md's fig10 verdict is hand-edited from 🟡 to ✅",
		Edits:   []Edit{{"EXPERIMENTS.md", "| 🟡 RBA's gain is ~60% of the paper's", "| ✅ RBA's gain is ~60% of the paper's"}},
		Tests:   map[string][]string{".": {"TestExperimentVerdictsAreComputed"}},
	},
	{
		Name:    "doc-names-deleted-test",
		Mistake: "README names a fuzz target no _test.go defines",
		Edits:   []Edit{{"README.md", "-fuzz FuzzCursor -fuzztime 30s", "-fuzz FuzzCursors -fuzztime 30s"}},
		Tests:   map[string][]string{".": {"TestDocsNameTheTree"}},
	},
	{
		Name:    "rule-without-direction",
		Mistake: "the rule drops its direction check, so a gain opposite to the paper's scores ✅ when its size is within the factor",
		Edits:   []Edit{{"internal/exp/paper.go", "ok = sameSide && max(", "ok = (sameSide || true) && max("}},
		Tests:   map[string][]string{"internal/exp": {"TestJudge"}},
	},
	{
		Name:    "paper-values-disagree",
		Mistake: "sec6b5 scores the paper's 19.3% for the cells fig10 scores with its 11.1%",
		Edits: []Edit{{"internal/exp/paper.go", `paper: 1.193, kind: gain, why: "open: fig10 reads these cells with the paper's 11.1%; unchecked against the paper text"},`,
			"paper: 1.193, kind: gain},"}},
		Tests: map[string][]string{"internal/exp": {"TestPaperTable"}},
	},
	{
		Name:    "crossing-reads-nan",
		Mistake: "a fig18 column that never reaches fully-connected@4 reads NaN and is scored",
		Edits:   []Edit{{"internal/exp/paper.go", "\t\treturn math.Inf(1)\n", "\t\treturn math.NaN()\n"}},
		Tests:   map[string][]string{"internal/exp": {"TestCrossingIsTotal"}},
	},

	// simlint's analyzers, each with the mutant it alone (or first) reports.
	{
		Name:    "recover-in-run-together",
		Mistake: "exp.runTogether swallows a panic of a concurrent kernel set",
		Edits: []Edit{{"internal/exp/runner.go", "func runTogether(cfg config.GPU, ks ...*gpu.Kernel) (*stats.Run, error) {\n",
			"func runTogether(cfg config.GPU, ks ...*gpu.Kernel) (*stats.Run, error) {\n\tdefer func() { recover() }()\n"}},
		Simlint: "faultflow",
	},
	{
		Name:    "recover-in-run-launch",
		Mistake: "gpu.runLaunch swallows a panic inside the device",
		Edits:   []Edit{{"internal/gpu/gpu.go", "defer func() { g.curLaunch = nil }()", "defer func() { g.curLaunch = nil; recover() }()"}},
		Tests:   map[string][]string{"internal/harness": {"TestChaosSweep", "TestChaosSweepMetrics"}},
		Simlint: "faultflow",
	},
	{
		Name:    "suites-in-map-order",
		Mistake: "workloads.Suites lists its seen map's keys, unsorted (TestKnobLiveness fails under some map orders, so it is not named)",
		Edits: []Edit{{"internal/workloads/workloads.go",
			"\tfor _, a := range all {\n\t\tif !seen[a.Suite] {\n\t\t\tseen[a.Suite] = true\n\t\t\tout = append(out, a.Suite)\n\t\t}\n\t}\n\tsort.Strings(out)\n",
			"\tfor _, a := range all {\n\t\tseen[a.Suite] = true\n\t}\n\tfor s := range seen {\n\t\tout = append(out, s)\n\t}\n"}},
		Simlint: "determinism",
	},
}
