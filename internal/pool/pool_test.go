package pool

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// allocators under test, freshly constructed per case.
func testAllocators(t *testing.T) map[string]Allocator {
	t.Helper()
	fixed, err := NewFixed(DefaultFixedClasses())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Allocator{
		"fixed": fixed,
		"table": NewTable(0),
	}
}

func TestAllocBasic(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			b, err := a.Alloc(100)
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			if b.Len() != 100 || len(b.Bytes()) != 100 {
				t.Fatalf("Len=%d len(Bytes)=%d", b.Len(), len(b.Bytes()))
			}
			if cap(b.Bytes()) < 100 {
				t.Fatalf("Cap=%d < requested", cap(b.Bytes()))
			}
			if b.refs.Load() != 1 {
				t.Fatalf("fresh buffer refs=%d", b.refs.Load())
			}
			// The block must be writable over its full requested length.
			for i := range b.Bytes() {
				b.Bytes()[i] = byte(i)
			}
			b.Release()
			s := a.Stats()
			if s.Allocs != 1 || s.Recycles != 1 || s.InUse != 0 {
				t.Fatalf("stats after release: %v", s)
			}
		})
	}
}

func TestAllocZeroAndMax(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			z, err := a.Alloc(0)
			if err != nil {
				t.Fatalf("Alloc(0): %v", err)
			}
			if z.Len() != 0 {
				t.Fatalf("Alloc(0).Len = %d", z.Len())
			}
			z.Release()

			m, err := a.Alloc(MaxBlock)
			if err != nil {
				t.Fatalf("Alloc(MaxBlock): %v", err)
			}
			if m.Len() != MaxBlock {
				t.Fatalf("max Len = %d", m.Len())
			}
			m.Release()

			if _, err := a.Alloc(MaxBlock + 1); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("oversize: %v", err)
			}
			if _, err := a.Alloc(-1); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("negative: %v", err)
			}
		})
	}
}

func TestRecyclingReusesBlocks(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			b1, err := a.Alloc(1024)
			if err != nil {
				t.Fatal(err)
			}
			p1 := &b1.Bytes()[0]
			b1.Release()
			b2, err := a.Alloc(1024)
			if err != nil {
				t.Fatal(err)
			}
			if &b2.Bytes()[0] != p1 {
				t.Fatal("released block was not recycled for an identical request")
			}
			b2.Release()
		})
	}
}

func TestRetainRelease(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			b, err := a.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			b.Retain()
			b.Retain()
			if b.refs.Load() != 3 {
				t.Fatalf("refs = %d", b.refs.Load())
			}
			b.Release()
			b.Release()
			if a.Stats().InUse != 1 {
				t.Fatal("buffer recycled while still referenced")
			}
			b.Release()
			if a.Stats().InUse != 0 {
				t.Fatal("final release did not recycle")
			}
		})
	}
}

func TestReleasePanics(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			b, err := a.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
			mustPanic(t, "double release", func() { b.Release() })
		})
	}
}

func TestRetainAfterReleasePanics(t *testing.T) {
	// Use a detached buffer so the recycled block is not handed out again
	// (a recycled-and-reallocated block legitimately accepts Retain).
	a := NewTable(0)
	b, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	mustPanic(t, "retain after release", func() { b.Retain() })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestFixedExhaustion(t *testing.T) {
	p, err := NewFixed([]FixedClass{{Size: 128, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(100); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third alloc: %v", err)
	}
	if in := p.Stats().InUse; in != 2 {
		t.Fatalf("InUse = %d, want both blocks", in)
	}
	b1.Release()
	if _, err := p.Alloc(100); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
	b2.Release()
}

func TestFixedFirstFitPicksSmallestClass(t *testing.T) {
	p, err := NewFixed([]FixedClass{
		{Size: 4096, Count: 1},
		{Size: 64, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b.Bytes()) != 64 {
		t.Fatalf("first fit chose %d-byte block for 10-byte request", cap(b.Bytes()))
	}
	b.Release()
}

func TestFixedConfigValidation(t *testing.T) {
	cases := [][]FixedClass{
		nil,
		{{Size: 0, Count: 1}},
		{{Size: MaxBlock + 1, Count: 1}},
		{{Size: 64, Count: 0}},
	}
	for i, c := range cases {
		if _, err := NewFixed(c); err == nil {
			t.Errorf("case %d: NewFixed accepted bad config", i)
		}
	}
}

func TestFixedClose(t *testing.T) {
	p, err := NewFixed([]FixedClass{{Size: 64, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Alloc(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
	b.Release() // releasing into a closed pool must not panic
}

// bucketSize reports the block size a table pool serves a request of n
// bytes from: the capacity of the block it hands out.
func bucketSize(p *Table, n int) (int, error) {
	b, err := p.Alloc(n)
	if err != nil {
		return 0, err
	}
	defer b.Release()
	return cap(b.Bytes()), nil
}

func TestTableBucketSizes(t *testing.T) {
	cases := []struct{ req, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {128, 128},
		{129, 256}, {4096, 4096}, {4097, 8192},
		{MaxBlock - 1, MaxBlock}, {MaxBlock, MaxBlock},
	}
	p := NewTable(0)
	for _, c := range cases {
		got, err := bucketSize(p, c.req)
		if err != nil || got != c.want {
			t.Errorf("bucket for %d bytes = %d, %v; want %d", c.req, got, err, c.want)
		}
	}
	if _, err := p.Alloc(MaxBlock + 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize alloc: %v", err)
	}
}

func TestTableRetainBound(t *testing.T) {
	p := NewTable(2)
	bufs := make([]*Buffer, 5)
	for i := range bufs {
		b, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		b.Release()
	}
	// Only the retained blocks come back without growing the pool.
	grows := p.Stats().Grows
	for i := range bufs {
		b, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	if kept := len(bufs) - int(p.Stats().Grows-grows); kept != 2 {
		t.Fatalf("free list kept %d blocks, retain is 2", kept)
	}
}

func TestTableClose(t *testing.T) {
	p := NewTable(0)
	b, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Alloc(64); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
	b.Release()
	for i := range p.buckets {
		if len(p.buckets[i].free) != 0 {
			t.Fatal("closed pool retained a released block")
		}
	}
}

func TestHighWaterMark(t *testing.T) {
	p := NewTable(0)
	var bufs []*Buffer
	for i := 0; i < 7; i++ {
		b, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		b.Release()
	}
	if got := p.Stats().HighWater; got != 7 {
		t.Fatalf("HighWater = %d, want 7", got)
	}
}

func TestConcurrentAllocRelease(t *testing.T) {
	for name, a := range testAllocators(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < 500; i++ {
						b, err := a.Alloc(r.Intn(4096))
						if err != nil {
							continue // fixed pool may transiently exhaust
						}
						if r.Intn(2) == 0 {
							b.Retain()
							b.Release()
						}
						b.Release()
					}
				}(int64(g))
			}
			wg.Wait()
			if in := a.Stats().InUse; in != 0 {
				t.Fatalf("leak: %d blocks in use after workload", in)
			}
		})
	}
}

func TestQuickBucketSizeInvariants(t *testing.T) {
	p := NewTable(0)
	f := func(n uint32) bool {
		req := int(n % (MaxBlock + 1))
		got, err := bucketSize(p, req)
		if err != nil {
			return false
		}
		// The bucket must hold the request, be a power of two, and be at
		// most one doubling above it (no gross waste).
		if got < req || got&(got-1) != 0 {
			return false
		}
		return req <= minBucketSize || got < 2*req
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocLenMatchesRequest(t *testing.T) {
	p := NewTable(0)
	f := func(n uint32) bool {
		req := int(n % (MaxBlock + 1))
		b, err := p.Alloc(req)
		if err != nil {
			return false
		}
		ok := b.Len() == req && len(b.Bytes()) == req && cap(b.Bytes()) >= req
		b.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
