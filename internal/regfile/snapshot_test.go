package regfile

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/snapshot"
)

// loadCollector stages a deterministic mix of instructions, writes, and
// partial grants so every piece of collector state is non-trivial.
func loadCollector(c *Collector, ticks int) []string {
	var grants []string
	denyMem := func(u *CollectorUnit) bool { return u.Instr.Op.UnitOf() != isa.ClassMEM }
	next := 0
	for i := 0; i < ticks; i++ {
		if cu := c.FreeCU(); cu >= 0 && i%2 == 0 {
			in := isa.MakeFMA(isa.Reg(next), isa.Reg(next+1), isa.Reg(next+2), isa.Reg(next+3))
			if next%3 == 0 {
				in = isa.MakeLoad(isa.OpLDG, isa.Reg(next), isa.Reg(next+1), isa.MemTrait{Pattern: isa.PatCoalesced})
			}
			c.Allocate(cu, int32(next), int32(next%4), in, next%2, false)
			next++
		}
		if i%3 == 0 {
			c.EnqueueWrite(WriteReq{WarpIdx: int32(i), Reg: isa.Reg(i % 8), Bank: int8(i % c.banks)})
		}
		c.Tick(denyMem)
		for _, w := range c.GrantedWrites() {
			grants = append(grants, fmt.Sprintf("%d:%d/%d", i, w.WarpIdx, w.Reg))
		}
	}
	return grants
}

func TestCollectorRoundTrip(t *testing.T) {
	a := NewCollector(2, 2, 5, nil)
	loadCollector(a, 11)

	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}

	b := NewCollector(2, 2, 5, nil)
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(d); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	// Internal state must match bit-exactly (modulo wiring pointers).
	if !reflect.DeepEqual(a.cus, b.cus) {
		t.Errorf("cus diverge:\n%+v\n%+v", a.cus, b.cus)
	}
	// %v folds nil and drained-empty queues together — equivalent states.
	if fmt.Sprintf("%v%v", a.queues, a.writes) != fmt.Sprintf("%v%v", b.queues, b.writes) {
		t.Errorf("queues diverge:\n%v %v\n%v %v", a.queues, a.writes, b.queues, b.writes)
	}
	if !reflect.DeepEqual(a.qlenHist, b.qlenHist) || a.histPos != b.histPos || a.cycle != b.cycle {
		t.Errorf("history ring diverges: pos %d/%d cycle %d/%d", a.histPos, b.histPos, a.cycle, b.cycle)
	}

	// And continued execution must be observationally identical,
	// including the delayed RBA tap.
	ga := loadCollector(a, 9)
	gb := loadCollector(b, 9)
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("post-restore grant streams diverge:\n%v\n%v", ga, gb)
	}
	for bank := 0; bank < a.banks; bank++ {
		for delay := 0; delay <= 5; delay++ {
			if x, y := a.DelayedQueueLen(bank, delay), b.DelayedQueueLen(bank, delay); x != y {
				t.Errorf("DelayedQueueLen(%d,%d) = %d vs %d", bank, delay, x, y)
			}
		}
	}
}

func TestCollectorRestoreShapeMismatch(t *testing.T) {
	a := NewCollector(2, 2, 5, nil)
	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ cus, banks, delay int }{{4, 2, 5}, {2, 4, 5}, {2, 2, 1}} {
		b := NewCollector(shape.cus, shape.banks, shape.delay, nil)
		d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.RestoreState(d); err == nil {
			t.Errorf("restore into %+v collector from 2CU/2bank/5delay snapshot succeeded", shape)
		}
	}
}

func TestAuditCatchesSeededLeaseCorruption(t *testing.T) {
	c := NewCollector(2, 2, 0, nil)
	loadCollector(c, 7)
	if vs := c.Audit("t"); len(vs) != 0 {
		t.Fatalf("healthy collector reported %v", vs)
	}
	// A phantom bank read.
	c.queues[0] = append(c.queues[0], readReq{cu: 0})
	c.busy++
	c.normal[0]++
	vs := c.Audit("t")
	if len(vs) == 0 {
		t.Fatal("seeded lease inconsistency not detected")
	}
	// The phantom read is counted like a real one, so it is the law it was
	// written for — reference counts against Pending — that fires.
	for _, v := range vs {
		if v.Rule != "lease" || !strings.Contains(v.Detail, "bank reads") {
			t.Fatalf("violation %v, want only lease reference-count violations", v)
		}
	}
	// Each maintained count drifting by itself is caught, by name.
	for _, tc := range []struct {
		drift func(*Collector)
		want  string
	}{
		{func(c *Collector) { c.busy-- }, "busy count"}, // the idle tick path would skip a request
		{func(c *Collector) { c.free ^= 1 }, "free-unit set"},
		{func(c *Collector) { c.normal[1]++ }, "normal-read count"},
		{func(c *Collector) { c.ready ^= 1 }, "ready mask"}, // a unit would dispatch uncollected, or never
	} {
		c = NewCollector(2, 2, 0, nil)
		loadCollector(c, 7)
		tc.drift(c)
		if vs := c.Audit("t"); len(vs) != 1 || !strings.Contains(vs[0].Detail, tc.want) {
			t.Fatalf("want exactly the %s violation, got %v", tc.want, vs)
		}
	}
}
