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
	if fmt.Sprintf("%v%v", a.stolen, a.writes) != fmt.Sprintf("%v%v", b.stolen, b.writes) {
		t.Errorf("queues diverge:\n%v %v\n%v %v", a.stolen, a.writes, b.stolen, b.writes)
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

// TestAuditCatchesSeededLeaseCorruption: the lease law names each way the
// reservations can break — a gap, two reads granted in one cycle, a stale
// end of the reservations, a grant before the unit's allocation, a stolen
// read with no unread operand behind it — and each maintained count drifting
// by itself.
func TestAuditCatchesSeededLeaseCorruption(t *testing.T) {
	// A collector with normal reads pending at both banks: units 0 and 1
	// hold FMAs (three reads each over two banks), one grant cycle run.
	loaded := func() *Collector {
		c := NewCollector(4, 2, 0, nil)
		c.Allocate(0, 0, 0, isa.MakeFMA(4, 1, 2, 3), 0, false)
		c.Allocate(1, 1, 1, isa.MakeFMA(5, 1, 3, 5), 0, false)
		c.Allocate(2, 2, 2, isa.Make1(isa.OpMOV, 6, 7), 0, true)
		c.Tick(func(*CollectorUnit) bool { return true })
		c.EnqueueWrite(WriteReq{WarpIdx: 3, Reg: 2, Bank: 0})
		if vs := c.Audit("t"); len(vs) != 0 {
			t.Fatalf("healthy collector reported %v", vs)
		}
		return c
	}
	// last returns unit 1's operand reserved last at bank 1.
	last := func(c *Collector) *int64 {
		u := c.CU(1)
		return &u.At[2]
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*Collector)
		want    string
	}{
		{"gap", func(c *Collector) { *last(c)++; c.rfree[1]++ }, "a gap in the reservations"},
		{"two reads in one cycle", func(c *Collector) { *last(c)--; c.rfree[1]-- }, "two reads reserved for cycle"},
		{"stale rfree", func(c *Collector) { c.rfree[1]++ }, "bank 1's reservations end at cycle"},
		{"granted before allocation", func(c *Collector) { c.CU(1).AllocCycle = 3 }, "before the unit was allocated"},
		{"phantom stolen read", func(c *Collector) { c.stolen[0] = append(c.stolen[0], 2); c.busy++ }, "more stolen reads queued at bank 0"},
		{"busy", func(c *Collector) { c.busy-- }, "busy count"}, // the idle tick path would skip a request
		{"free", func(c *Collector) { c.free ^= 1 }, "free-unit set"},
		{"ready", func(c *Collector) { c.ready ^= 1 }, "ready mask"}, // a unit would dispatch uncollected, or never
		{"waiting", func(c *Collector) { c.waiting ^= 2 }, "waiting mask"},
	} {
		c := loaded()
		tc.corrupt(c)
		vs := c.Audit("t")
		found := false
		for _, v := range vs {
			if v.Rule != "lease" {
				t.Errorf("%s: violation %v, want only lease violations", tc.name, v)
			}
			found = found || strings.Contains(v.Detail, tc.want)
		}
		if !found {
			t.Errorf("%s: want a %q violation, got %v", tc.name, tc.want, vs)
		}
	}
}
