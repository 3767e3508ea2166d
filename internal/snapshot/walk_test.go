package snapshot

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

type inner struct {
	A int8
	b uint16
	C [2]int32
}

// sample exercises every kind the walker carries, exported and not, at
// every nesting the state structs use.
type sample struct {
	flag   bool
	I      int
	i64    int64
	U      uint
	u8     uint8
	u32    uint32
	Named  kindByte
	arr    [3]uint64
	in     inner
	Tags   []uint64  `snap:"fixed"`
	use    []int64   `snap:"fixed"`
	grid   [][]int16 `snap:"fixed,fixed"`
	queues [][]inner `snap:"fixed"`
	heap   []inner
	small  []int32
	names  []string
}

type kindByte uint8

func newSample() *sample {
	return &sample{
		Tags: make([]uint64, 4), use: make([]int64, 4),
		grid:   [][]int16{make([]int16, 2), make([]int16, 2)},
		queues: make([][]inner, 2),
	}
}

func encodeState(t *testing.T, ptrs ...any) []byte {
	t.Helper()
	e := NewEncoder()
	e.State(ptrs...)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func decoderFor(t *testing.T, frame []byte) *Decoder {
	t.Helper()
	d, err := NewDecoder(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	return d
}

func TestStateRoundTrip(t *testing.T) {
	a := newSample()
	a.flag, a.I, a.i64, a.U, a.u8, a.u32, a.Named = true, -7, 1<<40, 9, 255, 1<<31, 200
	a.arr = [3]uint64{1, 1 << 63, 3}
	a.in = inner{A: -128, b: 65535, C: [2]int32{-1, 1 << 30}}
	copy(a.Tags, []uint64{0, 5, 1 << 50, 7})
	copy(a.use, []int64{-1, 0, 1 << 40, 3})
	a.grid[1][0] = -300
	a.queues[1] = []inner{{A: 1}, {b: 2}}
	a.heap = []inner{{A: 3, C: [2]int32{4, 5}}}
	a.small = []int32{1, -2, 3}
	a.names = []string{"", "k0+k1", "naïve\x00"}
	n := int64(-99)
	frame := encodeState(t, a, &n)

	b := newSample()
	b.heap = make([]inner, 5)     // longer than decoded: must shrink
	b.small = make([]int32, 0, 1) // shorter: must grow
	var m int64
	d := decoderFor(t, frame)
	d.State(b, &m)
	if err := d.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(a, b) || m != n {
		t.Fatalf("round trip diverged:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(frame, encodeState(t, b, &m)) {
		t.Fatal("re-encoding the decoded state gave different bytes")
	}
}

// aligned and unaligned are one struct with and without a leading aligner,
// the field isa.Instr leads with.
type aligned struct {
	_   [0]uint64
	Op  uint8
	Dst uint16
	N   uint32
}

type unaligned struct {
	Op  uint8
	Dst uint16
	N   uint32
}

// TestStateAlignerIsNoBytes holds a zero-length array to no bytes: a
// struct that leads with one encodes exactly as the same struct without it,
// so aligning a state type moves no frame byte, and it round-trips.
func TestStateAlignerIsNoBytes(t *testing.T) {
	a := []aligned{{Op: 3, Dst: 0xFFFF, N: 1 << 30}, {Op: 255}}
	u := []unaligned{{Op: 3, Dst: 0xFFFF, N: 1 << 30}, {Op: 255}}
	frame := encodeState(t, &a)
	if want := encodeState(t, &u); !bytes.Equal(frame, want) {
		t.Fatalf("with the aligner %x, without %x", frame, want)
	}
	var back []aligned
	d := decoderFor(t, frame)
	d.State(&back)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Fatalf("round trip %+v, want %+v", back, a)
	}
}

func TestStateRefusesWhatIsNotPlainData(t *testing.T) {
	type wiring struct {
		OK   int
		Deep struct {
			Rows []struct{ hook *int }
		}
	}
	for _, tc := range []struct {
		ptr  any
		path string
	}{
		{&wiring{}, "wiring.Deep.Rows.hook"},
		{&struct{ fn func() }{}, "fn"},
		{&struct{ m map[uint64]int64 }{}, "m"},
		{&struct{ i any }{}, "i"},
		{&struct{ c chan int }{}, "c"},
		{&struct{ f float64 }{}, "f"},
		{&struct {
			x []int `snap:"sparse"`
		}{}, "x"},
		{new(*int), "*int"},
	} {
		e := NewEncoder()
		e.State(tc.ptr)
		err := e.Finish(&bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.path+": ") {
			t.Errorf("%T: Finish = %v, want a refusal naming %s", tc.ptr, err, tc.path)
		}
		d := decoderFor(t, encodeState(t))
		if d.State(tc.ptr); d.Err() == nil || !strings.Contains(d.Err().Error(), tc.path+": ") {
			t.Errorf("%T: decode Err = %v, want a refusal naming %s", tc.ptr, d.Err(), tc.path)
		}
	}
	e := NewEncoder()
	e.State(sample{})
	if err := e.Finish(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "pointers") {
		t.Errorf("State(by value): Finish = %v, want a non-pointer refusal", err)
	}
}

func TestStateFixedLengthMismatch(t *testing.T) {
	frame := encodeState(t, newSample())
	for name, grow := range map[string]func(*sample){
		"sample.Tags":   func(s *sample) { s.Tags = make([]uint64, 5) },
		"sample.grid":   func(s *sample) { s.grid[1] = make([]int16, 3) },
		"sample.queues": func(s *sample) { s.queues = make([][]inner, 1) },
	} {
		b := newSample()
		grow(b)
		d := decoderFor(t, frame)
		d.State(b)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), name+": ") || !strings.Contains(err.Error(), "different shape") {
			t.Errorf("%s resized: Err = %v, want a shape mismatch there", name, err)
		}
	}
}

func TestStateOverflowAndTrailingBytes(t *testing.T) {
	wide := struct{ A int64 }{A: 300}
	frame := encodeState(t, &wide)
	var narrow struct{ A int8 }
	d := decoderFor(t, frame)
	d.State(&narrow)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), ".A: ") || !strings.Contains(err.Error(), "overflows int8") {
		t.Errorf("300 into int8: Err = %v, want an overflow at A", err)
	}

	two := [2]int64{1, 2}
	d = decoderFor(t, encodeState(t, &two))
	var one int64
	d.State(&one)
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("half-read frame: Finish = %v, want trailing bytes", err)
	}
}

// TestStateRefusesHostileLength is the walker half of the unbounded-length
// fix: a decoded length larger than the payload left is refused before a
// slice is sized by it.
func TestStateRefusesHostileLength(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(1 << 27)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	var target struct{ heap []inner }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	d := decoderFor(t, buf.Bytes())
	d.State(&target)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Err = %v, want the length refused", err)
	}
	if len(target.heap) != 0 {
		t.Fatalf("target grew to %d elements", len(target.heap))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || took > 10*time.Millisecond {
		t.Fatalf("refusal took %v and allocated %d bytes", took, grew)
	}
}
