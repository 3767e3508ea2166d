// Package audit defines the structured record type produced by the
// simulator's runtime invariant auditor (docs/ROBUSTNESS.md).
//
// The auditor itself lives next to the state it checks: each simulated
// component (smcore.SM, regfile.Collector, mem.Hierarchy, gpu.GPU) exposes
// an Audit method that re-derives its conservation laws from first
// principles — scoreboard bits from in-flight instructions, collector
// leases from queued bank requests, MSHR bounds from the pending-fill map,
// occupancy from allocated blocks, the CPI stack from the cycle count —
// and reports every mismatch as a Violation. This package only holds the
// shared record type, so the sim packages can emit violations without
// importing each other.
package audit

import "fmt"

// Violation records one invariant breach found by a runtime audit. A
// violation always means simulator state is corrupt: either a modeling bug
// or (in tests) injected corruption. The run that produced it must not be
// trusted.
type Violation struct {
	// Rule names the invariant family that failed: "scoreboard", "lease",
	// "mshr", "occupancy", "regbudget", "shmem", "lsu", "channel", "cache",
	// "cpi", "residency", "readyset", "config".
	Rule string
	// Where locates the component, e.g. "sm2/sub1/warp13" or "l1m[0]".
	Where string
	// Detail states the expectation and the observation.
	Detail string
}

// String formats the violation for logs and fault records.
func (v Violation) String() string {
	return v.Rule + " @ " + v.Where + ": " + v.Detail
}

// Violationf builds a Violation with a formatted detail message.
func Violationf(rule, where, format string, args ...any) Violation {
	return Violation{Rule: rule, Where: where, Detail: fmt.Sprintf(format, args...)}
}

// Summary formats a non-empty violation list: the first, and how many follow.
func Summary(vs []Violation) string {
	if len(vs) == 1 {
		return vs[0].String()
	}
	return fmt.Sprintf("%s (and %d more)", vs[0], len(vs)-1)
}

// Refusal is the plain error a restore returns for a state that breaks a
// law, or nil when vs is empty.
func Refusal(layer string, vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: snapshot restores to a state that breaks a law: %s", layer, Summary(vs))
}
