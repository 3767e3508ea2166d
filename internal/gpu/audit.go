package gpu

import (
	"fmt"

	"repro/internal/audit"
)

// AuditError reports runtime invariant violations found by the device
// auditor (config.AuditEvery / AuditCheck) on a heartbeat: the harness maps
// it to FaultAudit and dumps the flight recorder. Restore runs the same laws
// but refuses a frame that breaks one with a plain error: an unusable frame.
type AuditError struct {
	// Cycle is the simulation cycle the audit ran at.
	Cycle int64
	// Violations are the broken conservation laws, in deterministic
	// device order (SMs by index, then the memory hierarchy, the CPI
	// stack, the configuration).
	Violations []audit.Violation
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("gpu: invariant audit failed at cycle %d: %s", e.Cycle, audit.Summary(e.Violations))
}

// AuditCheck re-derives the device's conservation laws (docs/ROBUSTNESS.md,
// the auditor table) and returns every violation: each SM's, the memory
// hierarchy's, the CPI stack's and the frozen configuration's. Read-only and
// safe between cycles; an empty result is a healthy device.
func (g *GPU) AuditCheck() []audit.Violation {
	var vs []audit.Violation
	for _, sm := range g.sms {
		vs = append(vs, sm.Audit()...)
	}
	vs = append(vs, g.hier.Audit()...)
	vs = append(vs, g.cpiLaw()...)
	if g.cfg != g.cfgAtNew {
		vs = append(vs, audit.Violationf("config", "device", "the configuration every component reads was written after construction: it no longer equals the one New validated"))
	}
	return vs
}

// cpiLaw is the one law no layer below the device owns.
func (g *GPU) cpiLaw() []audit.Violation {
	if err := g.run.CheckCPI(); err != nil {
		return []audit.Violation{audit.Violationf("cpi", "device", "%v", err)}
	}
	return nil
}
