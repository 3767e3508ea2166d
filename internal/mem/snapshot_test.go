package mem

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/snapshot"
)

// exercise drives a small deterministic access mix so every piece of
// hierarchy state (tags, LRU, MSHRs, both channels) is non-trivial.
func exercise(h *Hierarchy, from, to int64) {
	sms := len(h.l1)
	for now := from; now < to; now++ {
		addr := uint64(now*128) % (1 << 22)
		h.AccessGlobal(int(now)%sms, addr, now%7 == 0, now)
		if now%3 == 0 {
			h.AccessGlobal(0, addr^0x5000, false, now)
		}
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	a := NewHierarchy(cfg)
	exercise(a, 0, 500)

	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}

	b := NewHierarchy(cfg)
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(d); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("decoder Finish: %v", err)
	}

	// The restored hierarchy must behave identically: same completion
	// cycles, same hit counters, same next events.
	exercise(a, 500, 900)
	exercise(b, 500, 900)
	for now := int64(900); now < 950; now++ {
		ca := a.AccessGlobal(0, uint64(now*64), false, now)
		cb := b.AccessGlobal(0, uint64(now*64), false, now)
		if ca != cb {
			t.Fatalf("cycle %d: completion %d vs %d after restore", now, ca, cb)
		}
		if ea, eb := a.NextEvent(now), b.NextEvent(now); ea != eb {
			t.Fatalf("cycle %d: NextEvent %d vs %d after restore", now, ea, eb)
		}
	}
	if a.l2.Hits != b.l2.Hits || a.l2.Misses != b.l2.Misses {
		t.Fatalf("L2 counters diverged: %d/%d vs %d/%d", a.l2.Hits, a.l2.Misses, b.l2.Hits, b.l2.Misses)
	}
	if len(a.Audit()) != 0 || len(b.Audit()) != 0 {
		t.Fatalf("audit violations on healthy hierarchies: %v / %v", a.Audit(), b.Audit())
	}
}

// TestMSHRFrameIsCanonical: two MSHRs holding the same fills encode to the
// same bytes whatever order the misses arrived in, and whatever dead slots
// their tables still carry.
func TestMSHRFrameIsCanonical(t *testing.T) {
	a, b := newMSHR(), newMSHR()
	for line := uint64(1); line <= 40; line++ {
		a.insert(a.slot(line), line, int64(1000-7*line), 0)
	}
	b.insert(b.slot(99), 99, 5, 0) // completes before the rest arrive: a dead slot in b only
	for line := uint64(40); line >= 1; line-- {
		b.insert(b.slot(line), line, int64(1000-7*line), 10)
	}
	b.insert(b.slot(7), 7, 1000-7*7, 10) // re-inserted with the same completion
	a.nextEvent(10)
	encode := func(m *mshr) []byte {
		e := snapshot.NewEncoder()
		fills := m.fills(nil)
		e.State(&fills)
		var buf bytes.Buffer
		if err := e.Finish(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if len(a.fills(nil)) != 40 || len(b.fills(nil)) != 40 {
		t.Fatalf("setup: %d and %d pending fills, want 40 each", len(a.fills(nil)), len(b.fills(nil)))
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("equal MSHR states encoded to different bytes")
	}
}

func TestHierarchyRestoreShapeMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	a := NewHierarchy(cfg)
	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.NumSMs = 4
	b := NewHierarchy(other)
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(d); err == nil {
		t.Fatal("restore into a 4-SM hierarchy from a 2-SM snapshot succeeded")
	}
}

func TestAuditCatchesSeededMSHRCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	h := NewHierarchy(cfg)
	exercise(h, 0, 100)
	if vs := h.Audit(); len(vs) != 0 {
		t.Fatalf("healthy hierarchy reported %v", vs)
	}
	h.CorruptMSHRForTest()
	vs := h.Audit()
	if len(vs) == 0 {
		t.Fatal("seeded MSHR inconsistency not detected")
	}
	if vs[0].Rule != "mshr" {
		t.Fatalf("violation rule = %q, want mshr (%v)", vs[0].Rule, vs[0])
	}
}

func TestAuditCatchesChannelCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	h := NewHierarchy(cfg)
	h.drch.fracPending = -3
	vs := h.Audit()
	found := false
	for _, v := range vs {
		if v.Rule == "channel" {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative fractional backlog not detected: %v", vs)
	}
}
