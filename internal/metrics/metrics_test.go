package metrics

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistry: every registration method is a no-op on a nil
// registry and returns a nil handle — the disabled fast path.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if c := r.Counter("a_total", "h"); c != nil {
		t.Fatal("nil registry returned a counter")
	}
	if g := r.Gauge("b", "h"); g != nil {
		t.Fatal("nil registry returned a gauge")
	}
	if drop := r.GaugeFunc("d", "h", func() float64 { return 1 }); drop != nil {
		t.Fatal("nil registry returned a drop function")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus on nil registry: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry scrape not empty: %q", buf.String())
	}
	// The handles a nil registry hands out take updates and drop them: no
	// call site needs a guard.
	r.Counter("a_total", "h").Inc()
	r.Counter("a_total", "h").Add(3)
	r.Gauge("b", "h").Set(1.5)
}

// TestRegistrationIdempotent: same (name, labels) yields the same
// handle; same name with a different type panics.
func TestRegistrationIdempotent(t *testing.T) {
	r := New()
	c1 := r.Counter("x_total", "h", L("k", "v"))
	c2 := r.Counter("x_total", "h", L("k", "v"))
	if c1 != c2 {
		t.Fatal("re-registration returned a different handle")
	}
	c1.Add(3)
	if c2.Value() != 3 {
		t.Fatal("handles not aliased")
	}
	if c3 := r.Counter("x_total", "h", L("k", "w")); c3 == c1 {
		t.Fatal("distinct label values shared a series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad name", "h")
}

// TestGaugeFuncDrop: the function GaugeFunc returns removes that series
// from the exposition and nothing else.
func TestGaugeFuncDrop(t *testing.T) {
	r := New()
	dropA := r.GaugeFunc("live", "h", func() float64 { return 1 }, L("cell", "a"))
	r.GaugeFunc("live", "h", func() float64 { return 2 }, L("cell", "b"))
	dropA()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if out := buf.String(); strings.Contains(out, `cell="a"`) || !strings.Contains(out, `live{cell="b"} 2`) {
		t.Fatalf("drop removed the wrong series:\n%s", out)
	}
}

// TestScrapeDeterministic: two registries fed identically (in different
// orders) scrape byte-identically.
func TestScrapeDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := New()
		for _, i := range order {
			switch i {
			case 0:
				r.Counter("zz_total", "last name first").Add(7)
			case 1:
				r.Gauge("aa", "first name last", L("b", "2"), L("a", "1")).Set(3.5)
			case 2:
				r.GaugeFunc("fn", "computed", func() float64 { return 42 })
			}
		}
		return r
	}
	a, b := build([]int{0, 1, 2}), build([]int{2, 1, 0})
	var pa, pb bytes.Buffer
	a.WritePrometheus(&pa)
	b.WritePrometheus(&pb)
	if pa.String() != pb.String() {
		t.Errorf("Prometheus scrapes differ:\n%s\n---\n%s", pa.String(), pb.String())
	}
	// Label sets render sorted by name regardless of call order.
	if !strings.Contains(pa.String(), `aa{a="1",b="2"} 3.5`) {
		t.Errorf("labels not sorted:\n%s", pa.String())
	}
}

// TestConcurrentUpdates: handle methods are atomic under concurrency.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

// TestHTTPEndpoints drives the live server end to end.
func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Counter("hits_total", "h", L("app", `q"x`)).Add(2)
	r.GaugeFunc("live", "h", func() float64 { return 9 })
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, `hits_total{app="q\"x"} 2`) {
		t.Errorf("/metrics missing escaped counter:\n%s", body)
	}
	if !strings.Contains(body, "live 9") {
		t.Errorf("/metrics missing gauge-func:\n%s", body)
	}
}
