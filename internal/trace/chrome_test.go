package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// chromeEvent is the subset of the trace-event format the exporter must
// populate on every record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *int64         `json:"ts"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// TestWriteChromePBMriq is the acceptance check for the Perfetto export:
// tracing pb-mriq on SM 0 yields a valid Chrome trace-event JSON array of
// {"name","ph","ts","pid","tid"} records covering issue, stall, and
// bank-grant events — the same path `subcoresim -chrome-trace` drives.
func TestWriteChromePBMriq(t *testing.T) {
	app, err := workloads.ByName("pb-mriq")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap, opt.SamplePeriod = wholeRun, 64
	tr := trace.New(opt)

	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.SetTracer(tr)
	for _, k := range app.Kernels {
		if err := g.RunKernel(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if lost := tr.Overwritten(0); lost != 0 {
		t.Fatalf("the ring lapped (%d events overwritten): raise wholeRun", lost)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}

	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a valid JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}

	byPhase := map[string]int{}
	byCat := map[string]int{}
	sawStall := false
	for i, e := range events {
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event %d missing name/ph: %+v", i, e)
		}
		if e.Pid == nil {
			t.Fatalf("event %d missing pid", i)
		}
		if e.Ph != "M" && e.Ph != "C" {
			// Every timeline record carries ts and tid; metadata ("M")
			// has no ts, counters ("C") have no tid.
			if e.Ts == nil || e.Tid == nil {
				t.Fatalf("event %d (%s/%s) missing ts/tid", i, e.Ph, e.Name)
			}
			if *e.Pid != 0 {
				t.Fatalf("event %d on pid %d, only SM 0 is traced", i, *e.Pid)
			}
		}
		byPhase[e.Ph]++
		byCat[e.Cat]++
		if len(e.Name) >= 6 && e.Name[:6] == "stall:" {
			sawStall = true
		}
	}
	for _, want := range []string{"issue", "bank"} {
		if byCat[want] == 0 {
			t.Errorf("no %q-category events in export", want)
		}
	}
	if !sawStall {
		t.Error("no stall events in export")
	}
	if byPhase["M"] == 0 {
		t.Error("no process/thread metadata emitted")
	}
	if byPhase["C"] == 0 {
		t.Error("no counter samples emitted despite SamplePeriod")
	}
	if byPhase["X"] == 0 || byPhase["i"] == 0 {
		t.Errorf("missing duration/instant events: phases %v", byPhase)
	}
}

// TestWriteChromeFlightRecorder: export also works from a ring shorter
// than the run, the subcoresim default — and a ring that lapped says how
// much of the run the export is missing.
func TestWriteChromeFlightRecorder(t *testing.T) {
	cfg := smallCfg()
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap = 1024
	tr := trace.New(opt)
	runTraced(t, cfg, "pb-stencil", tr)

	full := trace.OptionsFor(&cfg, 0)
	full.RingCap = wholeRun
	trFull := trace.New(full)
	runTraced(t, cfg, "pb-stencil", trFull)
	if lost := trFull.Overwritten(0); lost != 0 {
		t.Fatalf("the whole-run ring lapped (%d events overwritten): raise wholeRun", lost)
	}
	emitted := int64(len(trFull.Events(0)))
	if lost := tr.Overwritten(0); lost <= 0 || lost != emitted-1024 {
		t.Fatalf("recorder overwrote %d events, want %d emitted - 1024 kept", lost, emitted)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// metadata + 1024 ring events.
	if len(events) < 1024 {
		t.Fatalf("expected >= 1024 events, got %d", len(events))
	}
	var labels map[string]any
	for _, e := range events {
		if e["name"] == "process_labels" {
			labels, _ = e["args"].(map[string]any)
		}
	}
	if got, _ := labels["overwritten"].(float64); int64(got) != emitted-1024 {
		t.Errorf("process metadata carries overwritten = %v, want %d", labels["overwritten"], emitted-1024)
	}
	if want := fmt.Sprintf("kept the last 1024 of %d events", emitted); labels["labels"] != want {
		t.Errorf("process label %q, want %q", labels["labels"], want)
	}
}
