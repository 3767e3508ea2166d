// Package span records the benchmark's own trace: one span per call into
// a simulator layer (name, start, end, parent, cell id), kept in memory
// and written once at exit as Chrome trace-event JSON. Spans are taken
// from outside the simulator, around its exported functions; the
// simulator itself is not instrumented.
package span

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// ID names a recorded span; None is "no parent".
type ID int32

// None is the parent of a root span.
const None ID = -1

// Span is one timed interval. Start and End are offsets from the
// recorder's epoch.
type Span struct {
	Name   string
	Parent ID
	// Cell groups the spans of one simulated cell (0 = not cell work).
	Cell       int
	Start, End time.Duration
}

// Recorder accumulates spans. A nil *Recorder records nothing: every
// method is a no-op, so untraced runs share the traced code path at the
// cost of one nil check per span.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// New starts a recorder; its epoch is now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span under parent.
func (r *Recorder) Begin(name string, parent ID, cell int) ID {
	if r == nil {
		return None
	}
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Cell: cell, Start: time.Since(r.epoch), End: -1})
	return ID(len(r.spans) - 1)
}

// End closes a span and returns its duration.
func (r *Recorder) End(id ID) time.Duration {
	if r == nil || id == None {
		return 0
	}
	s := &r.spans[id]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// Add records a span whose interval was measured elsewhere (children
// synthesised from harness.Result.Wall, driver batches).
func (r *Recorder) Add(name string, parent ID, cell int, start time.Time, dur time.Duration) ID {
	if r == nil {
		return None
	}
	at := start.Sub(r.epoch)
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Cell: cell, Start: at, End: at + dur})
	return ID(len(r.spans) - 1)
}

// Spans returns the recorded spans in Begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Total sums the durations of every closed span with the given name.
func (r *Recorder) Total(name string) (sum time.Duration, n int) {
	for _, s := range r.Spans() {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// SelfTotal sums, over every closed span with the given name, the span's
// duration minus the part its direct children cover — the layer's own
// time.
func (r *Recorder) SelfTotal(name string) time.Duration {
	spans := r.Spans()
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != None && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var sum time.Duration
	for i, s := range spans {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start - child[i]
		}
	}
	return sum
}

// WriteChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in Perfetto like
// subcoresim -chrome-trace output. Each root span and its descendants
// share a tid, so the passes and drivers stack as separate tracks.
func (r *Recorder) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	spans := r.Spans()
	track := make([]int, len(spans))
	first := true
	for i, s := range spans {
		if s.Parent == None {
			track[i] = i
		} else {
			track[i] = track[s.Parent]
		}
		if s.End < 0 {
			continue
		}
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cell":%d,"parent":%d}}`,
			s.Name, track[i], float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Cell, s.Parent)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
