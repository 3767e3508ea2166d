package gpu

import (
	"fmt"
	"sync/atomic"
)

// monitorPeriod is how often (in cycles) the simulation loop publishes a
// heartbeat and polls for cancellation. A power of two so the check
// compiles to a mask; at typical simulation speeds (~1M cycles/sec) this
// bounds cancellation latency to well under a millisecond while keeping
// the per-cycle cost of supervision to one predictable branch.
const monitorPeriod = 1024

// Monitor is the concurrency-safe channel between a running device and
// an external supervisor (a watchdog, a timeout timer, a context). The
// simulation loop publishes its cycle count as a heartbeat every
// monitorPeriod cycles and polls the cancel flag at the same points;
// supervisors read the heartbeat to detect lost forward progress and set
// the flag to stop the run. All methods are safe for concurrent use and
// all are no-ops on a nil receiver, so an unsupervised run pays nothing.
type Monitor struct {
	cycle    atomic.Int64
	canceled atomic.Bool
	reason   atomic.Pointer[string]
}

// Cycle returns the most recently published simulation cycle.
func (m *Monitor) Cycle() int64 {
	if m == nil {
		return 0
	}
	return m.cycle.Load()
}

// Cancel requests the supervised run stop; the first reason wins. The
// simulation loop observes the flag within monitorPeriod cycles and
// returns a *CancelError.
func (m *Monitor) Cancel(reason string) {
	if m == nil {
		return
	}
	if m.canceled.CompareAndSwap(false, true) {
		m.reason.Store(&reason)
	}
}

// Canceled reports whether Cancel has been called.
func (m *Monitor) Canceled() bool { return m != nil && m.canceled.Load() }

// Reason returns the first Cancel reason, or "".
func (m *Monitor) Reason() string {
	if m == nil {
		return ""
	}
	if p := m.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// beat publishes the heartbeat and reports whether the run should stop.
func (m *Monitor) beat(cycle int64) bool {
	if m == nil {
		return false
	}
	m.cycle.Store(cycle)
	return m.canceled.Load()
}

// SetMonitor attaches a supervision monitor to the device; pass nil to
// detach. Call before RunKernel.
func (g *GPU) SetMonitor(m *Monitor) { g.mon = m }

// CycleLimitError reports a kernel batch that hit its cycle cap — the
// deadlock/livelock backstop of RunKernel's maxCycles argument. Callers
// can detect it with errors.As and retry at a raised cap.
type CycleLimitError struct {
	// Kernel is the first kernel of the batch.
	Kernel string
	// MaxCycles is the cap the batch exceeded.
	MaxCycles int64
	// BlocksLaunched / BlocksTotal locate how far the launch got.
	BlocksLaunched, BlocksTotal int
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("gpu: kernel batch (%s...) exceeded %d cycles (%d/%d blocks launched)",
		e.Kernel, e.MaxCycles, e.BlocksLaunched, e.BlocksTotal)
}

// CancelError reports a run stopped by its Monitor (watchdog, timeout,
// or context cancellation) with the supervisor's reason.
type CancelError struct {
	// Kernel is the first kernel of the interrupted batch.
	Kernel string
	// Cycle is the simulation cycle the cancellation was observed at.
	Cycle int64
	// Reason is the supervisor's Cancel reason.
	Reason string
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("gpu: kernel %s canceled at cycle %d: %s", e.Kernel, e.Cycle, e.Reason)
}
