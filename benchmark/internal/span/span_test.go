package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := New()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cell := r.Add("cell", None, 1, at(0), ms(100))
	run := r.Add("gpu.run_kernels", cell, 1, at(10), ms(80))
	r.Add("gpu.new", cell, 1, at(0), ms(10))
	r.Add("snapshot.write", run, 1, at(20), ms(5))
	r.Add("snapshot.write", run, 1, at(40), ms(5))

	if got := r.SelfTotal("cell"); got != ms(10) {
		t.Errorf("cell self time %v, want 10ms (100 - 80 - 10)", got)
	}
	if got := r.SelfTotal("gpu.run_kernels"); got != ms(70) {
		t.Errorf("run_kernels self time %v, want 70ms", got)
	}
	if sum, n := r.Total("snapshot.write"); sum != ms(10) || n != 2 {
		t.Errorf("snapshot.write total %v over %d spans, want 10ms over 2", sum, n)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", None, 0)
	if id != None || r.End(id) != 0 || r.Add("y", None, 0, time.Now(), time.Second) != None || len(r.Spans()) != 0 {
		t.Error("nil recorder is not inert")
	}
}

func TestChromeExportIsValidTraceJSON(t *testing.T) {
	r := New()
	root := r.Begin("pass", None, 0)
	c := r.Begin("cell", root, 1)
	r.End(c)
	r.End(root)
	r.Begin("never closed", None, 0)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want the 2 closed spans", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph != "X" || e.Tid != 0 {
			t.Errorf("event %+v: want a named complete event on the root's track", e)
		}
	}
}
