// Package dirty is a driver-test fixture with exactly one guaranteed
// finding: a wall-clock read, which the determinism analyzer flags in
// every fixture. The exit-code contract test asserts simlint returns 1
// on it.
package dirty

import "time"

// stamp reads the wall clock: the finding.
func stamp() time.Time {
	return time.Now()
}
