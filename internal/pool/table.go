package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Table is the optimized allocation scheme described in §5 of the paper:
// blocks are created on demand, and a precomputed table matches a requested
// size to its bucket in constant time ("it relies on a table based matching
// from requested memory size to pool buffer size, thus the time needed to
// allocate a frame shrinks dramatically for applications that use similar
// buffer sizes throughout their lifetimes").
type Table struct {
	counters
	buckets [numBuckets]tableBucket
	retain  int // free blocks kept per bucket; excess goes to the garbage collector
	dead    atomic.Bool
}

type tableBucket struct {
	mu   sync.Mutex
	free []*Buffer
	size int
}

const (
	minBucketSize = 64
	numBuckets    = 13 // 64 B … 256 KB in powers of two
	granularity   = 64
)

// sizeToBucket maps (size+granularity-1)/granularity to a bucket index.
var sizeToBucket [MaxBlock/granularity + 1]uint8

func init() {
	bucket, bsize := 0, minBucketSize
	for i := range sizeToBucket {
		need := i * granularity
		for need > bsize {
			bucket++
			bsize <<= 1
		}
		sizeToBucket[i] = uint8(bucket)
	}
	if bucket != numBuckets-1 {
		panic(fmt.Sprintf("pool: bucket table covers %d buckets, expected %d", bucket+1, numBuckets))
	}
}

// DefaultRetain is the per-bucket free list depth kept by NewTable.
const DefaultRetain = 512

// NewTable builds a Table pool that keeps up to retain free blocks per
// bucket; retain <= 0 selects DefaultRetain.
func NewTable(retain int) *Table {
	if retain <= 0 {
		retain = DefaultRetain
	}
	p := &Table{retain: retain}
	size := minBucketSize
	for i := range p.buckets {
		p.buckets[i].size = size
		size <<= 1
	}
	return p
}

// Name implements Allocator.
func (p *Table) Name() string { return "table" }

// Alloc implements Allocator: a table lookup, then a pop from the bucket's
// free list, growing on demand.
func (p *Table) Alloc(n int) (*Buffer, error) {
	if n < 0 || n > MaxBlock {
		p.fails.Add(1)
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	idx := int(sizeToBucket[(n+granularity-1)/granularity])
	b := &p.buckets[idx]

	if p.dead.Load() {
		p.fails.Add(1)
		return nil, ErrClosed
	}
	b.mu.Lock()
	var buf *Buffer
	if k := len(b.free); k > 0 {
		buf = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
		buf = &Buffer{data: make([]byte, b.size), owner: p, bucket: idx}
		p.grows.Add(1)
	}
	buf.reset(n)
	p.onAlloc()
	return buf, nil
}

func (p *Table) recycle(buf *Buffer) {
	b := &p.buckets[buf.bucket]
	b.mu.Lock()
	if !p.dead.Load() && len(b.free) < p.retain {
		b.free = append(b.free, buf)
	}
	// Otherwise drop the block: the runtime garbage collector reclaims it.
	b.mu.Unlock()
	p.onRecycle()
}

// Close drops all free lists and fails subsequent allocations.
func (p *Table) Close() {
	if p.dead.Swap(true) {
		return
	}
	for i := range p.buckets {
		b := &p.buckets[i]
		b.mu.Lock()
		b.free = nil
		b.mu.Unlock()
	}
}

// Stats implements Allocator.
func (p *Table) Stats() Stats { return p.snapshot() }
