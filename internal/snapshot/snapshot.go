// Package snapshot implements the versioned, checksummed binary format
// that serializes the simulator's full machine state mid-kernel
// (docs/ROBUSTNESS.md).
//
// The format is deliberately dumb: a fixed magic, a format version, a
// varint-encoded payload, and a CRC-32C trailer. There is no schema in the
// stream. Each state-holding component keeps its mutable fields in one
// plain-data state struct, and one reflective walker (State, walk.go)
// encodes and decodes those structs field by field in declaration order,
// so the two directions cannot drift apart and a field added to a state
// struct is carried without further code. A state struct holds only what
// restore cannot rebuild: a fact derived from other state (a warp's bank
// offset, its stolen unit, its next instructions, a sub-core's warp count)
// lives outside it, so no frame can carry it wrong. Any change to a state
// struct must bump Version; old snapshots are rejected, never migrated — a
// snapshot is a crash-recovery artifact with the lifetime of one sweep, not
// an archival format.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the snapshot format version. Bump it whenever the set, order
// or type of the fields in any state struct changes, or what the machine
// identity a frame opens with hashes (config.GPU.MachineID); decoding
// rejects every other version.
const Version = 12

// magic identifies a snapshot stream; the trailing byte leaves room to
// change the container (not the payload schema) without colliding.
var magic = [8]byte{'S', 'U', 'B', 'C', 'S', 'N', 'P', 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder accumulates a snapshot payload in memory; Finish frames it with
// the magic, version, length, and CRC-32C trailer and writes it out. An
// Encoder carries one frame per Reset, and keeps its buffer across them.
type Encoder struct {
	buf []byte // headroom bytes for Finish's header, then the payload
	err error  // set by State on a value it cannot carry; reported by Finish
}

// headroom is the longest container header: the magic and two uvarints.
const headroom = len(magic) + 2*binary.MaxVarintLen64

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder {
	e := new(Encoder)
	e.Reset()
	return e
}

// Reset empties the Encoder, a zero one included, for another frame.
func (e *Encoder) Reset() { e.buf, e.err = append(e.buf[:0], make([]byte, headroom)...), nil }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Finish frames the payload and writes the complete snapshot to w. The
// container (see Frame) is built around the payload where it lies: the
// header ends where the payload starts, the checksum follows it.
func (e *Encoder) Finish(w io.Writer) error {
	if e.err != nil {
		return e.err
	}
	var hdr [headroom]byte
	h := appendHeader(hdr[:0], len(e.buf)-headroom)
	start := headroom - len(h)
	copy(e.buf[start:], h)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(e.buf[start:], castagnoli))
	_, err := w.Write(e.buf[start:])
	return err
}

// Frame wraps a payload in the snapshot container:
// magic | uvarint version | uvarint payload-length | payload | crc32c(LE),
// with the checksum covering everything before it.
func Frame(payload []byte) []byte {
	framed := appendHeader(make([]byte, 0, headroom+len(payload)+4), len(payload))
	framed = append(framed, payload...)
	return binary.LittleEndian.AppendUint32(framed, crc32.Checksum(framed, castagnoli))
}

// appendHeader appends the container header of a payload of n bytes.
func appendHeader(dst []byte, n int) []byte {
	dst = binary.AppendUvarint(append(dst, magic[:]...), Version)
	return binary.AppendUvarint(dst, uint64(n))
}

// Decoder reads back a snapshot produced by Encoder.Finish. NewDecoder
// verifies the frame (magic, version, length, checksum) up front; the
// field readers then never fail individually — the first structural
// mismatch sets a sticky error, subsequent reads return zero values, and
// Finish reports the error plus any unconsumed payload. Callers therefore
// decode straight-line and check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads the entire stream from r and verifies the frame.
func NewDecoder(r io.Reader) (*Decoder, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	payload, err := Payload(all)
	if err != nil {
		return nil, err
	}
	return &Decoder{buf: payload}, nil
}

// Payload verifies a frame's container (checksum, magic, version, length)
// and returns the payload it carries, aliasing frame.
func Payload(frame []byte) ([]byte, error) {
	if len(frame) < len(magic)+2+4 {
		return nil, fmt.Errorf("snapshot: truncated frame (%d bytes)", len(frame))
	}
	body, tail := frame[:len(frame)-4], frame[len(frame)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x) — file corrupt or torn", got, want)
	}
	if string(body[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic — not a snapshot file")
	}
	rest := body[len(magic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: malformed version field")
	}
	if ver != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only %d — re-run from scratch", ver, Version)
	}
	rest = rest[n:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: malformed length field")
	}
	rest = rest[n:]
	if uint64(len(rest)) != plen {
		return nil, fmt.Errorf("snapshot: payload length %d, header promises %d", len(rest), plen)
	}
	return rest, nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Len reads the length of a variable-size collection. Every element costs
// at least one payload byte, so a length beyond the bytes that remain is
// corrupt; it is refused here, before a caller sizes an allocation or a
// loop by it.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if left := len(d.buf) - d.off; d.err == nil && n > uint64(left) {
		d.fail("length %d exceeds the %d payload bytes left", n, left)
		return 0
	}
	return int(n)
}

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool past end of payload")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool byte %d", b)
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte slice (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("byte run of %d past end of payload", n)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish verifies the whole payload decoded cleanly and completely.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: %d trailing payload bytes — snapshot layout drift", len(d.buf)-d.off)
	}
	return nil
}
