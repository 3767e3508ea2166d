package program

import (
	"testing"

	"repro/internal/isa"
)

// FuzzCursor decodes arbitrary bytes into a segment structure and checks
// the cursor invariants: exactly Len() instructions yielded, the fetched
// count consistent at every step, and a copy of the cursor (as a warp's
// frame holds) walking on independently.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 4})
	f.Add([]byte{1, 1})
	f.Add([]byte{7, 3, 1, 1, 9, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var segs []Segment
		for i := 0; i+1 < len(data) && len(segs) < 8; i += 2 {
			bodyLen := int(data[i]%5) + 1
			trips := int64(data[i+1]%9) + 1
			body := make([]isa.Instr, bodyLen)
			for j := range body {
				body[j] = isa.MakeFMA(isa.Reg(j), 1, 2, 3)
			}
			segs = append(segs, Segment{Body: body, Trips: trips})
		}
		p, err := New(segs...)
		if err != nil {
			t.Fatalf("valid segments rejected: %v", err)
		}
		c := p.Cursor()
		var n int64
		for {
			if c.fetched != n {
				t.Fatalf("fetched = %d, want %d", c.fetched, n)
			}
			cp := c
			peeked, pok := cp.Next()
			in, ok := c.Next()
			if pok != ok || (ok && peeked != in) {
				t.Fatal("a copied cursor disagreed with the original")
			}
			if !ok {
				break
			}
			n++
		}
		if n != p.Len() {
			t.Fatalf("yielded %d instructions, want %d", n, p.Len())
		}
	})
}
