package gpu

import (
	"fmt"

	"repro/internal/audit"
)

// AuditError reports runtime invariant violations found by the device
// auditor (config.AuditEvery / AuditCheck). It is a structured,
// errors.As-able fault: the harness maps it to FaultAudit and dumps the
// flight recorder, so a corrupted simulation dies loudly at the first
// audited heartbeat instead of producing silently wrong statistics.
type AuditError struct {
	// Cycle is the simulation cycle the audit ran at.
	Cycle int64
	// Violations are the broken conservation laws, in deterministic
	// device order (SMs by index, then the memory hierarchy, the CPI
	// stack, the configuration).
	Violations []audit.Violation
}

func (e *AuditError) Error() string {
	if len(e.Violations) == 1 {
		return fmt.Sprintf("gpu: invariant audit failed at cycle %d: %s", e.Cycle, e.Violations[0])
	}
	return fmt.Sprintf("gpu: invariant audit failed at cycle %d: %s (and %d more)",
		e.Cycle, e.Violations[0], len(e.Violations)-1)
}

// AuditCheck re-derives the device's conservation laws and returns every
// violation: per-SM scoreboard/lease/occupancy/budget invariants, memory
// hierarchy MSHR/cache/channel invariants, the CPI-stack identity (every
// sub-core's attributed cycles sum exactly to the device cycles), and the
// frozen configuration (the config every component reads still equals the
// one New validated — components size themselves from it at construction,
// and snapshot/resume identity assumes it never moves).
// Read-only and safe between cycles; an empty result is a healthy device.
func (g *GPU) AuditCheck() []audit.Violation {
	var vs []audit.Violation
	for _, sm := range g.sms {
		vs = append(vs, sm.Audit()...)
	}
	vs = append(vs, g.hier.Audit()...)
	if err := g.run.CheckCPI(); err != nil {
		vs = append(vs, audit.Violationf("cpi", "device", "%v", err))
	}
	if g.cfg != g.cfgAtNew {
		vs = append(vs, audit.Violationf("config", "device", "the configuration every component reads was written after construction: it no longer equals the one New validated"))
	}
	return vs
}

// ArmCorruptionForTest schedules a seeded state corruption of the given
// kind ("scoreboard", "lease", "readyset", "mshr", or "config") to be applied at the next
// heartbeat — mid-kernel, exactly where real corruption would strike —
// so tests can prove the armed auditor turns it into an AuditError.
// Never call outside tests.
func (g *GPU) ArmCorruptionForTest(kind string) {
	g.corruptKind = kind
}

// applyCorruption performs the armed test corruption. Scoreboard
// corruption needs an active warp; it stays armed until one exists.
func (g *GPU) applyCorruption() {
	switch g.corruptKind {
	case "scoreboard":
		for _, sm := range g.sms {
			if sm.CorruptScoreboardForTest() {
				g.corruptKind = ""
				return
			}
		}
	case "lease":
		g.sms[0].CorruptLeaseForTest()
		g.corruptKind = ""
	case "readyset":
		g.sms[0].CorruptReadySetForTest()
		g.corruptKind = ""
	case "mshr":
		g.hier.CorruptMSHRForTest()
		g.corruptKind = ""
	case "config":
		g.cfg.RBAScoreLatency++
		g.corruptKind = ""
	default:
		panic(fmt.Sprintf("gpu: unknown test corruption kind %q", g.corruptKind))
	}
}
