package sgl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"xdaq/internal/pool"
)

func newPool() pool.Allocator { return pool.NewTable(0) }

// flat reads the whole list through CopyTo.
func flat(l *List) []byte {
	out := make([]byte, l.Len())
	if _, err := l.CopyTo(0, out); err != nil {
		panic(err)
	}
	return out
}

func TestBuildSegmentation(t *testing.T) {
	p := newPool()
	cases := []struct {
		total, seg, wantSegs int
	}{
		{0, 1024, 0},
		{1, 1024, 1},
		{1024, 1024, 1},
		{1025, 1024, 2},
		{4096, 1024, 4},
		{4097, 1024, 5},
	}
	for _, c := range cases {
		l, err := Build(p, c.total, c.seg)
		if err != nil {
			t.Fatalf("Build(%d,%d): %v", c.total, c.seg, err)
		}
		if l.Len() != c.total || l.Segments() != c.wantSegs {
			t.Fatalf("Build(%d,%d): len=%d segs=%d want segs=%d",
				c.total, c.seg, l.Len(), l.Segments(), c.wantSegs)
		}
		l.Release()
	}
	if p.Stats().InUse != 0 {
		t.Fatalf("leak: %v", p.Stats())
	}
}

func TestBuildNegative(t *testing.T) {
	if _, err := Build(newPool(), -1, 0); !errors.Is(err, ErrRange) {
		t.Fatalf("Build(-1): %v", err)
	}
}

func TestBuildCapsSegmentAtMaxBlock(t *testing.T) {
	l, err := Build(newPool(), pool.MaxBlock+1, pool.MaxBlock*2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Segments() != 2 {
		t.Fatalf("segments = %d, want 2 (segment size must cap at MaxBlock)", l.Segments())
	}
}

func TestFromBytesRoundTrip(t *testing.T) {
	p := newPool()
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	l, err := FromBytes(p, data, 999) // deliberately unaligned segment size
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat(l), data) {
		t.Fatal("round trip mismatch")
	}
	l.Release()
	if p.Stats().InUse != 0 {
		t.Fatal("leak after release")
	}
}

func TestCopyToAcrossBoundaries(t *testing.T) {
	data := []byte("abcdefghij") // 10 bytes, 3-byte segments: abc|def|ghi|j
	l, err := FromBytes(newPool(), data, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	for off := 0; off <= len(data); off++ {
		for n := 0; n <= len(data)-off; n++ {
			dst := make([]byte, n)
			got, err := l.CopyTo(off, dst)
			if err != nil || got != n {
				t.Fatalf("CopyTo(%d, len %d) = %d, %v", off, n, got, err)
			}
			if !bytes.Equal(dst, data[off:off+n]) {
				t.Fatalf("CopyTo(%d, %d) = %q", off, n, dst)
			}
		}
	}
	// Reading past the end is short, not an error.
	dst := make([]byte, 5)
	got, err := l.CopyTo(8, dst)
	if err != nil || got != 2 {
		t.Fatalf("short read = %d, %v", got, err)
	}
	if _, err := l.CopyTo(11, dst); !errors.Is(err, ErrRange) {
		t.Fatalf("offset past end: %v", err)
	}
	if _, err := l.CopyTo(-1, dst); !errors.Is(err, ErrRange) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestCopyFromAcrossBoundaries(t *testing.T) {
	l, err := Build(newPool(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if err := l.CopyFrom(0, []byte("0000000000")); err != nil {
		t.Fatal(err)
	}
	if err := l.CopyFrom(2, []byte("ABCDE")); err != nil {
		t.Fatal(err)
	}
	if got := string(flat(l)); got != "00ABCDE000" {
		t.Fatalf("content = %q", got)
	}
	if err := l.CopyFrom(8, []byte("xyz")); !errors.Is(err, ErrRange) {
		t.Fatalf("overflow write: %v", err)
	}
	if err := l.CopyFrom(-1, []byte("x")); !errors.Is(err, ErrRange) {
		t.Fatalf("negative write: %v", err)
	}
}

func TestRetainReleaseChain(t *testing.T) {
	p := newPool()
	l, err := FromBytes(p, make([]byte, 100), 32)
	if err != nil {
		t.Fatal(err)
	}
	l.Retain() // a second holder of the same chain
	l.Release()
	if p.Stats().InUse == 0 {
		t.Fatal("chain recycled while still retained")
	}
	l.Release()
	if p.Stats().InUse != 0 {
		t.Fatal("chain leaked")
	}
}

// A guarded send — retain, hand the frame to an asynchronous transport,
// release the guard — must leave the chain intact for the transport's later
// write and release.  An early Release must neither empty the segment slice
// nor recycle the blocks while a holder remains.
func TestRetainReleaseIsSymmetric(t *testing.T) {
	p := newPool()
	l, err := FromBytes(p, []byte("chained body"), 4)
	if err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()

	l.Retain()  // the guard's hold
	l.Release() // the guard lets go; the "transport" still holds the frame
	if l.Segments() != segs || l.Len() == 0 {
		t.Fatalf("early release tore the chain down: %d segments, %d bytes",
			l.Segments(), l.Len())
	}
	if p.Stats().InUse == 0 {
		t.Fatal("blocks recycled while the list was still held")
	}

	l.Release() // the last holder
	if p.Stats().InUse != 0 {
		t.Fatalf("chain leaked after final release: %v", p.Stats())
	}
}

func TestQuickCopyToFromConsistent(t *testing.T) {
	p := newPool()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := r.Intn(2000)
		seg := 1 + r.Intn(257)
		l, err := Build(p, total, seg)
		if err != nil {
			return false
		}
		defer l.Release()
		ref := make([]byte, total)
		if err := l.CopyFrom(0, make([]byte, total)); err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			off := 0
			if total > 0 {
				off = r.Intn(total)
			}
			n := r.Intn(total - off + 1)
			patch := make([]byte, n)
			r.Read(patch)
			if err := l.CopyFrom(off, patch); err != nil {
				return false
			}
			copy(ref[off:], patch)
		}
		return bytes.Equal(flat(l), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
