package snapshot

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// State appends the values ptrs point to, walking each by its type:
//
//   - bool is one byte; signed integers are zigzag varints, unsigned ones
//     plain varints;
//   - arrays and structs are their elements or fields in order (every
//     field, exported or not);
//   - a slice is its length then its elements, a string its length then its
//     bytes.
//
// Anything else — pointer, func, interface, chan, map, float — is
// refused with the field's path: a state struct holds plain data only, so
// wiring, scratch buffers behind pointers and callbacks cannot sit in one,
// and neither can a map, whose iteration order would make equal states give
// different bytes (mem's MSHR carries its map as sorted rows instead). The
// refusal surfaces from Finish.
func (e *Encoder) State(ptrs ...any) {
	w := walker{e: e}
	for _, ptr := range ptrs {
		p, addr, err := rootPlan(ptr)
		if err != nil {
			if e.err == nil {
				e.err = err
			}
			return
		}
		w.walk(p, addr, 0)
	}
}

// State decodes into the values ptrs point to, mirroring Encoder.State. A
// slice is resized to the decoded length (never beyond what the remaining
// payload could hold, see Len) unless its struct field carries the tag
// `snap:"fixed"`: then the decoded length must equal the length the target
// already has — the shape the restore target was built with — and the
// elements are decoded in place. `snap:"fixed,fixed"` fixes both levels of
// a slice of slices. A value that overflows its field, like an unsupported
// kind, sets the decoder's sticky error, with the field's path.
func (d *Decoder) State(ptrs ...any) {
	for _, ptr := range ptrs {
		if d.err != nil {
			return
		}
		p, addr, err := rootPlan(ptr)
		if err != nil {
			d.err = err
			return
		}
		w := walker{d: d}
		if w.walk(p, addr, 0); d.err != nil {
			w.at = append(w.at, p.typ.String())
			slices.Reverse(w.at)
			d.err = fmt.Errorf("%s: %w", strings.Join(w.at, "."), d.err)
		}
	}
}

// rootPlan resolves one State argument to its plan and address.
func rootPlan(ptr any) (*plan, unsafe.Pointer, error) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return nil, nil, fmt.Errorf("snapshot: State wants non-nil pointers, got %T", ptr)
	}
	p := planOf(v.Type().Elem())
	if p.refusal != "" {
		path := append([]string{p.typ.String()}, p.refusedAt...)
		return nil, nil, fmt.Errorf("snapshot: %s: %s", strings.Join(path, "."), p.refusal)
	}
	return p, v.UnsafePointer(), nil
}

// plan is a type compiled for walking, once per type. Reflecting on every
// value (a reflect.Value per field per warp per frame) made the walker four
// times slower than the hand-written encoders it replaced; following
// precomputed offsets through memory costs 1.3x their time to write a frame
// and 1.5x to restore one.
//
// This file is the only non-test user of unsafe in the tree. Scalars are
// loaded and stored through typed pointers at offsets reflect reported,
// inside the object the caller's pointer keeps alive; slice headers are read
// and written through reflect only.
type plan struct {
	kind   reflect.Kind
	typ    reflect.Type
	size   uintptr
	elem   *plan   // arrays and slices
	n      int     // arrays
	fields []field // structs
	// refusal is why this type cannot be carried (empty when it can), and
	// refusedAt the field path from this type down to the offender.
	refusal   string
	refusedAt []string
}

type field struct {
	name   string
	offset uintptr
	fixed  int // slice levels the snap tag fixes
	plan   *plan
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := compile(t, map[reflect.Type]*plan{})
	plans.Store(t, p)
	return p
}

// compile builds t's plan. seen shares sub-plans and ends the recursion on
// a struct that holds a slice of itself.
func compile(t reflect.Type, seen map[reflect.Type]*plan) *plan {
	if p, ok := seen[t]; ok {
		return p
	}
	p := &plan{kind: t.Kind(), typ: t, size: t.Size()}
	seen[t] = p
	switch p.kind {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.String:
	case reflect.Array, reflect.Slice:
		if p.kind == reflect.Array {
			p.n = t.Len()
		}
		p.elem = compile(t.Elem(), seen)
		p.refusal, p.refusedAt = p.elem.refusal, p.elem.refusedAt
	case reflect.Struct:
		p.fields = make([]field, t.NumField())
		for i := range p.fields {
			sf := t.Field(i)
			f := field{name: sf.Name, offset: sf.Offset, plan: compile(sf.Type, seen)}
			refusal := f.plan.refusal
			switch tag := sf.Tag.Get("snap"); tag {
			case "":
			case "fixed":
				f.fixed = 1
			case "fixed,fixed":
				f.fixed = 2
			default:
				refusal = fmt.Sprintf("unknown snap tag %q", tag)
			}
			if refusal != "" && p.refusal == "" {
				p.refusal = refusal
				p.refusedAt = append([]string{sf.Name}, f.plan.refusedAt...)
			}
			p.fields[i] = f
		}
	default:
		p.refusal = fmt.Sprintf("unsupported kind %s (%s) — state structs hold plain data only", p.kind, t)
	}
	return p
}

// walker is one traversal serving both directions — it encodes when e is
// set and decodes otherwise — so the two cannot disagree on the layout.
// Only decoding can fail part-way (what a plan cannot carry was refused when
// it was compiled); at then collects, innermost first, the field names the
// walk unwinds through. The healthy path tracks nothing.
type walker struct {
	e  *Encoder
	d  *Decoder
	at []string
}

// signedInt and unsignedInt carry the integer of type T at ptr; decoding
// refuses a value that does not fit T.
func signedInt[T int | int8 | int16 | int32 | int64](w *walker, p *plan, ptr unsafe.Pointer) {
	if w.e != nil {
		w.e.Varint(int64(*(*T)(ptr)))
	} else if x := w.d.Varint(); int64(T(x)) != x {
		w.d.fail("value %d overflows %s", x, p.typ)
	} else {
		*(*T)(ptr) = T(x)
	}
}

func unsignedInt[T uint | uint8 | uint16 | uint32 | uint64](w *walker, p *plan, ptr unsafe.Pointer) {
	if w.e != nil {
		w.e.Uvarint(uint64(*(*T)(ptr)))
	} else if x := w.d.Uvarint(); uint64(T(x)) != x {
		w.d.fail("value %d overflows %s", x, p.typ)
	} else {
		*(*T)(ptr) = T(x)
	}
}

// walk carries the value of plan p at ptr. fixed is how many slice levels
// at and below it must keep the length the decode target already has.
func (w *walker) walk(p *plan, ptr unsafe.Pointer, fixed int) {
	switch p.kind {
	case reflect.Bool:
		if w.e != nil {
			w.e.Bool(*(*bool)(ptr))
		} else {
			*(*bool)(ptr) = w.d.Bool()
		}
	case reflect.Int:
		signedInt[int](w, p, ptr)
	case reflect.Int8:
		signedInt[int8](w, p, ptr)
	case reflect.Int16:
		signedInt[int16](w, p, ptr)
	case reflect.Int32:
		signedInt[int32](w, p, ptr)
	case reflect.Int64:
		signedInt[int64](w, p, ptr)
	case reflect.Uint:
		unsignedInt[uint](w, p, ptr)
	case reflect.Uint8:
		unsignedInt[uint8](w, p, ptr)
	case reflect.Uint16:
		unsignedInt[uint16](w, p, ptr)
	case reflect.Uint32:
		unsignedInt[uint32](w, p, ptr)
	case reflect.Uint64:
		unsignedInt[uint64](w, p, ptr)
	case reflect.String:
		if w.e != nil {
			w.e.Bytes([]byte(*(*string)(ptr)))
		} else {
			*(*string)(ptr) = string(w.d.Bytes())
		}
	case reflect.Array:
		w.elems(p.elem, ptr, p.n, fixed)
	case reflect.Struct:
		for i := range p.fields {
			f := &p.fields[i]
			w.walk(f.plan, unsafe.Add(ptr, f.offset), f.fixed)
			if w.d != nil && w.d.err != nil {
				w.at = append(w.at, f.name)
				return
			}
		}
	case reflect.Slice:
		v := reflect.NewAt(p.typ, ptr).Elem()
		n := v.Len()
		if w.e != nil {
			w.e.Uvarint(uint64(n))
		} else {
			got := w.d.Len()
			switch {
			case w.d.err != nil:
				return
			case fixed > 0 && got != n:
				w.d.fail("frame holds %d elements, this device has %d — snapshot from a different shape", got, n)
				return
			case fixed > 0:
			case got <= v.Cap():
				v.SetLen(got)
			default:
				v.Set(reflect.MakeSlice(p.typ, got, got))
			}
			n = got
		}
		w.elems(p.elem, v.UnsafePointer(), n, max(fixed-1, 0))
	}
}

// elems walks n consecutive values of plan p starting at ptr. The cache tag
// and LRU arrays are most of a frame, so the two kinds they use get loops
// with no dispatch per element.
func (w *walker) elems(p *plan, ptr unsafe.Pointer, n, fixed int) {
	switch {
	case p.kind == reflect.Uint64 && w.e != nil:
		buf := w.e.buf
		for _, x := range unsafe.Slice((*uint64)(ptr), n) {
			buf = binary.AppendUvarint(buf, x)
		}
		w.e.buf = buf
	case p.kind == reflect.Uint64:
		s := unsafe.Slice((*uint64)(ptr), n)
		for i := range s {
			s[i] = w.d.Uvarint()
		}
	case p.kind == reflect.Int64 && w.e != nil:
		buf := w.e.buf
		for _, x := range unsafe.Slice((*int64)(ptr), n) {
			buf = binary.AppendVarint(buf, x)
		}
		w.e.buf = buf
	case p.kind == reflect.Int64:
		s := unsafe.Slice((*int64)(ptr), n)
		for i := range s {
			s[i] = w.d.Varint()
		}
	default:
		// A failed decoder reads zeros from here on: stop rather than spin
		// through what may be a large fixed table.
		for i := 0; i < n && (w.d == nil || w.d.err == nil); i++ {
			w.walk(p, unsafe.Add(ptr, uintptr(i)*p.size), fixed)
		}
	}
}
