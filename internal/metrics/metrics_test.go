package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Add(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0 (<= 1µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (<= 4µs)
	h.Observe(time.Second)           // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[2] != 1 || s.Buckets[NumBuckets] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets)
	}
	if q := s.Quantile(0.5); q != Bound(2) {
		t.Fatalf("p50 = %d, want %d", q, Bound(2))
	}
	if q := s.Quantile(1.0); q != 2*Bound(NumBuckets-1) {
		t.Fatalf("p100 = %d, want overflow estimate", q)
	}
	if s.SumNanos == 0 {
		t.Fatal("duration sum should be nonzero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestSnapshotSortedAndFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Gauge("a").Add(1)
	r.Func("m", func() int64 { return 42 })
	r.Func("panics", func() int64 { panic("boom") })
	r.Histogram("h").Observe(time.Millisecond)
	s := r.Snapshot()
	if len(s) != 5 {
		t.Fatalf("snapshot has %d samples, want 5", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Name, s[i].Name)
		}
	}
	for _, v := range s {
		if v.Name == "panics" && v.Value != 0 {
			t.Fatalf("panicking func sampled as %d, want 0", v.Value)
		}
		if v.Name == "m" && v.Value != 42 {
			t.Fatalf("func sampled as %d, want 42", v.Value)
		}
	}
}

// TestAddFuncSumsTerms checks the summed sampled gauge: terms add up, a
// removed term leaves, the last removal drops the name, and Func still
// replaces whatever was there.
func TestAddFuncSumsTerms(t *testing.T) {
	r := NewRegistry()
	value := func() (int64, bool) {
		for _, s := range r.Snapshot() {
			if s.Name == "g" {
				return s.Value, true
			}
		}
		return 0, false
	}
	rm1 := r.AddFunc("g", func() int64 { return 1 })
	rm2 := r.AddFunc("g", func() int64 { return 10 })
	if v, _ := value(); v != 11 {
		t.Fatalf("two terms sampled as %d, want 11", v)
	}
	rm1()
	rm1() // removing twice is harmless
	if v, _ := value(); v != 10 {
		t.Fatalf("after removing a term: %d, want 10", v)
	}
	rm2()
	if _, ok := value(); ok {
		t.Fatal("gauge survived its last term")
	}
	r.AddFunc("g", func() int64 { return 5 })
	r.Func("g", func() int64 { return 7 })
	if v, _ := value(); v != 7 {
		t.Fatalf("Func did not replace the terms: %d, want 7", v)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.dispatched").Add(3)
	r.Gauge("exec.queue.depth").Add(2)
	r.Histogram("pta.pollScan").Observe(5 * time.Microsecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE xdaq_exec_dispatched_total counter",
		"xdaq_exec_dispatched_total 3",
		"xdaq_exec_queue_depth 2",
		"# TYPE xdaq_pta_pollScan histogram",
		`xdaq_pta_pollScan_bucket{le="+Inf"} 1`,
		"xdaq_pta_pollScan_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.dispatched").Add(9)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "xdaq_exec_dispatched_total 9") {
		t.Fatalf("prometheus body: %s", rec.Body.String())
	}

	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"exec.dispatched": 9`) {
		t.Fatalf("json body: %s", rec.Body.String())
	}
}

func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h").Observe(time.Microsecond)
	flat := Flatten(r.Snapshot())
	names := make(map[string]FlatSample, len(flat))
	for _, f := range flat {
		names[f.Name] = f
	}
	if f, ok := names["c"]; !ok || !f.IsUint || f.Uint != 2 {
		t.Fatalf("flat counter: %+v", names["c"])
	}
	for _, want := range []string{"h.count", "h.sum.ns", "h.p50.ns", "h.p99.ns"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("flatten missing %q (have %v)", want, flat)
		}
	}
}

func TestEnableGate(t *testing.T) {
	Enable(false)
	if Enabled() {
		t.Fatal("expected disabled")
	}
	Enable(true)
	if !Enabled() {
		t.Fatal("expected enabled")
	}
	Enable(false)
}
