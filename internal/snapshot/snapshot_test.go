package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(1<<63 + 12345)
	e.Varint(-1)
	e.Varint(1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{})
	e.Bytes([]byte{0, 255, 7})
	e.Bytes([]byte("warp state"))

	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 1<<63+12345 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := d.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 255, 7}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); string(got) != "warp state" {
		t.Errorf("Bytes = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestEncoderReuse: Finish builds the container around the payload where it
// lies, so its bytes must be Frame's — at every width of the length field —
// and a Reset Encoder, zero or used, must keep nothing of the frame before:
// not its payload (a shorter frame follows a longer one), not its checksum,
// not its State refusal.
func TestEncoderReuse(t *testing.T) {
	var e Encoder // the zero value is usable after Reset
	for _, n := range []int{0, 1, 127, 128, 70_000, 300, 16_384, 5} {
		payload := bytes.Repeat([]byte{byte(n), 0xA5}, n)[:n]
		e.Reset()
		e.buf = append(e.buf, payload...)
		var buf bytes.Buffer
		if err := e.Finish(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), Frame(payload)) {
			t.Fatalf("payload of %d bytes: Finish wrote %d bytes that differ from Frame's %d", n, buf.Len(), len(Frame(payload)))
		}
	}
	e.Reset()
	e.State(&struct{ M map[int]int }{})
	if err := e.Finish(&bytes.Buffer{}); err == nil {
		t.Fatal("Finish accepted a refused State")
	}
	e.Reset()
	if err := e.Finish(&bytes.Buffer{}); err != nil {
		t.Fatalf("Reset kept the refusal: %v", err)
	}
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Bool(true)
	e.Varint(42)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func TestDecoderRejectsCorruption(t *testing.T) {
	good := encodeSample(t)

	t.Run("flipped byte", func(t *testing.T) {
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			if _, err := NewDecoder(bytes.NewReader(bad)); err == nil {
				t.Errorf("byte %d flipped: decoder accepted corrupt frame", i)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			if _, err := NewDecoder(bytes.NewReader(good[:i])); err == nil {
				t.Errorf("truncated to %d bytes: decoder accepted", i)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader(nil)); err == nil {
			t.Error("decoder accepted empty stream")
		}
	})
}

func TestDecoderRejectsVersionSkew(t *testing.T) {
	good := encodeSample(t)
	// Rebuild the frame with a bumped version varint (one byte at offset
	// 8 while Version < 128) and a recomputed checksum, so only the
	// version check can reject it.
	framed := append([]byte(nil), good[:len(good)-4]...)
	framed[8] = Version + 1
	framed = appendCRC(framed)
	_, err := NewDecoder(bytes.NewReader(framed))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skew decode error = %v, want version mismatch", err)
	}
}

func TestTrailingPayloadFails(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(encodeSample(t)))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Bool()
	// Varint deliberately unread.
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Finish = %v, want trailing-bytes error", err)
	}
}

// appendCRC mirrors Finish's trailer for tests that hand-build frames.
func appendCRC(frame []byte) []byte {
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
}
