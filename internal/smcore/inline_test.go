package smcore

import (
	"os/exec"
	"strings"
	"testing"
)

// The inlining gate: the operand collector's per-cycle helpers fit go1.24's
// inline budget (80), and the sub-core runs them without a call —
// collectorTick the cycle's steps, SM.drain EnqueueWrite, the sleep path
// FastForward. A helper that grows past the budget still computes the same
// thing, so no other test notices; this one reads the compiler's own
// report, as TestCycleLoopZeroAlloc reads the allocator's.
var mustInline = []string{"Oldest", "Dispatched", "EndCycle", "advance", "EnqueueWrite", "FastForward"}

func TestPerCycleHelpersInline(t *testing.T) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "repro/internal/regfile", "repro/internal/smcore")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	report := string(out)
	for _, name := range mustInline {
		if !strings.Contains(report, ": can inline (*Collector)."+name+"\n") {
			t.Errorf("regfile.(*Collector).%s is over the inline budget (go build -gcflags=-m=2 ./internal/regfile says by how much)", name)
		} else if !strings.Contains(report, ": inlining call to regfile.(*Collector)."+name+"\n") {
			t.Errorf("regfile.(*Collector).%s fits the budget but smcore does not inline it", name)
		}
	}
}
