package gpu

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/snapshot"
)

// fuzzCfg is a device small enough that a mid-kernel frame is a couple of
// kilobytes: one SM, 16 warp slots, 1 KB caches.
func fuzzCfg() config.GPU {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	cfg.MaxWarpsPerSM = 16
	cfg.MaxBlocksPerSM = 4
	cfg.L1KBPerSM = 1
	cfg.L2KB, cfg.L2Assoc = 1, 8
	return cfg.WithScheduler(config.SchedRBA).WithBankStealing()
}

// FuzzRestoreFrame drives the real restore path, not just the codec
// primitives: it takes a valid mid-kernel frame of a small device, lets the
// fuzzer overwrite or splice payload bytes, re-frames the result with a
// correct length and checksum — so only Restore's own validation stands
// between the bytes and the machine state — and restores it into a fresh
// device. Restore must return an error or a device the auditor can walk:
// never panic, never allocate more than a small multiple of the frame. The
// harness feeds frames left by crashed runs straight into this path, and a
// layout change without a Version bump produces exactly such frames.
func FuzzRestoreFrame(f *testing.F) {
	cfg, ks := fuzzCfg(), snapApp()
	g, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	snap := captureAt(g, 1)
	if err := g.RunKernels(ks, 0); err != nil {
		f.Fatal(err)
	}
	payload, err := snapshot.Payload(*snap)
	if err != nil {
		f.Fatal(err)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	f.Add(uint32(0), []byte(nil), false) // the valid frame itself
	// A fixed number of evenly spread offsets, so the seed corpus (and the
	// names go test gives its entries) does not move with the frame's length.
	for i := 0; i < 37; i++ {
		off := uint32(i * len(payload) / 37)
		f.Add(off, huge, true)
		f.Add(off, []byte{0xff, 0xff, 0x7f}, false)
		f.Add(off, []byte{0}, false)
	}

	f.Fuzz(func(t *testing.T, off uint32, patch []byte, splice bool) {
		at := int(off) % (len(payload) + 1)
		rest := at
		if !splice {
			rest = min(at+len(patch), len(payload))
		}
		hostile := append(append(append([]byte(nil), payload[:at]...), patch...), payload[rest:]...)
		frame := snapshot.Frame(hostile)

		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = fresh.Restore(bytes.NewReader(frame), ks)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(frame)+1<<20); grew > limit {
			t.Fatalf("Restore of a %d-byte frame allocated %d bytes (limit %d)", len(frame), grew, limit)
		}
		if err == nil {
			fresh.AuditCheck() // violations are fine; a panic is not
		} else if len(patch) == 0 {
			t.Fatalf("the unmodified frame did not restore: %v", err)
		}
	})
}
