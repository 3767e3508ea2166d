package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotRoundTrip drives both halves of the codec contract from
// fuzzed inputs. The structured half encodes the fuzzer's values
// through every primitive, decodes them back, and requires exact
// equality plus a clean Finish. The adversarial half then treats the
// same fuzz data as a hostile snapshot file: NewDecoder may reject it,
// but must never panic, and an accepted frame must still decode without
// panicking — the harness feeds real files from crashed runs straight
// into this path, so "garbage in, error out" is a safety property, not
// a nicety.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), false, "", []byte(nil))
	f.Add(uint64(1<<63+12345), int64(-1), true, "warp state", []byte{0, 255, 7})
	f.Add(uint64(42), int64(1<<40), true, "§ unicode §", bytes.Repeat([]byte{0xA5}, 300))

	f.Fuzz(func(t *testing.T, u uint64, v int64, b bool, s string, raw []byte) {
		e := NewEncoder()
		e.Uvarint(u)
		e.Varint(v)
		e.Bool(b)
		e.Bytes([]byte(s))
		e.Bytes(raw)
		var buf bytes.Buffer
		if err := e.Finish(&buf); err != nil {
			t.Fatalf("Finish: %v", err)
		}

		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewDecoder rejected its own encoder's frame: %v", err)
		}
		if got := d.Uvarint(); got != u {
			t.Errorf("Uvarint = %d, want %d", got, u)
		}
		if got := d.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
		if got := d.Bool(); got != b {
			t.Errorf("Bool = %v, want %v", got, b)
		}
		if got := d.Bytes(); string(got) != s {
			t.Errorf("Bytes = %q, want %q", got, s)
		}
		if got := d.Bytes(); !bytes.Equal(got, raw) {
			t.Errorf("Bytes = %v, want %v", got, raw)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("decode Finish: %v", err)
		}

		// A single corrupted byte is a burst error CRC-32C always catches;
		// the frame must be refused outright.
		if len(buf.Bytes()) > 0 {
			bad := append([]byte(nil), buf.Bytes()...)
			bad[int(u%uint64(len(bad)))] ^= 0x40
			if _, err := NewDecoder(bytes.NewReader(bad)); err == nil {
				t.Error("decoder accepted a frame with a flipped byte")
			}
		}

		// Hostile input: the raw fuzz bytes as a snapshot file. Errors are
		// expected; panics and unchecked reads are not.
		if d, err := NewDecoder(bytes.NewReader(raw)); err == nil {
			d.Uvarint()
			d.Varint()
			d.Bool()
			d.Bytes()
			d.State(&struct{ Rows []struct{ A, B int64 } }{})
			_ = d.Finish()
		}
	})
}
