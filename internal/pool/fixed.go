package pool

import (
	"fmt"
	"sort"
	"sync"
)

// Fixed is the original XDAQ allocation scheme: the pool is carved up front
// into a fixed population of blocks of a few sizes, and every allocation
// walks the block list first-fit under a single lock.  The paper's whitebox
// measurement attributes most of the peer transport processing time to this
// scheme ("most of the PT processing time is spent in the frame
// allocation"); it is kept faithful — including the linear scan — so the
// allocator ablation reproduces the effect.
type Fixed struct {
	counters
	mu     sync.Mutex
	blocks []*Buffer // all blocks, ordered by ascending size
	free   []bool    // free[i] reports whether blocks[i] is available
	closed bool
}

// FixedClass describes one block size class of a Fixed pool.
type FixedClass struct {
	Size  int // block size in bytes, at most MaxBlock
	Count int // number of blocks carved for this class
}

// DefaultFixedClasses is the carve-up used by executives unless configured
// otherwise: a spread from small control frames to the 256 KB maximum.
func DefaultFixedClasses() []FixedClass {
	return []FixedClass{
		{Size: 256, Count: 512},
		{Size: 1 << 10, Count: 256},
		{Size: 4 << 10, Count: 128},
		{Size: 16 << 10, Count: 64},
		{Size: 64 << 10, Count: 16},
		// Enough full-size blocks for a peer transport's posted receive
		// ring (32 by default) plus in-flight frames.
		{Size: MaxBlock, Count: 48},
	}
}

// NewFixed builds a Fixed pool from the given classes.  All memory is
// allocated immediately.
func NewFixed(classes []FixedClass) (*Fixed, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("pool: fixed pool needs at least one class")
	}
	p := &Fixed{}
	for _, c := range classes {
		if c.Size <= 0 || c.Size > MaxBlock {
			return nil, fmt.Errorf("pool: fixed class size %d out of range", c.Size)
		}
		if c.Count <= 0 {
			return nil, fmt.Errorf("pool: fixed class %d has count %d", c.Size, c.Count)
		}
		for i := 0; i < c.Count; i++ {
			p.blocks = append(p.blocks, &Buffer{data: make([]byte, c.Size), owner: p})
		}
	}
	sort.SliceStable(p.blocks, func(i, j int) bool {
		return cap(p.blocks[i].data) < cap(p.blocks[j].data)
	})
	p.free = make([]bool, len(p.blocks))
	for i, b := range p.blocks {
		b.bucket = i
		p.free[i] = true
	}
	return p, nil
}

// Name implements Allocator.
func (p *Fixed) Name() string { return "fixed" }

// Alloc implements Allocator with a first-fit scan over the block list.
func (p *Fixed) Alloc(n int) (*Buffer, error) {
	if n < 0 || n > MaxBlock {
		p.fails.Add(1)
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.fails.Add(1)
		return nil, ErrClosed
	}
	// The original scheme's deliberate weakness: a linear first-fit walk.
	// Blocks are sorted by size, so the first free block large enough is
	// also the tightest fit, but finding it costs a scan.
	for i, b := range p.blocks {
		if p.free[i] && cap(b.data) >= n {
			p.free[i] = false
			p.mu.Unlock()
			b.reset(n)
			p.onAlloc()
			return b, nil
		}
	}
	p.mu.Unlock()
	p.fails.Add(1)
	return nil, fmt.Errorf("%w: no free block of %d bytes", ErrExhausted, n)
}

func (p *Fixed) recycle(b *Buffer) {
	p.mu.Lock()
	p.free[b.bucket] = true
	p.mu.Unlock()
	p.onRecycle()
}

// Close marks the pool closed; subsequent Alloc calls fail.  Outstanding
// buffers may still be released.
func (p *Fixed) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Stats implements Allocator.
func (p *Fixed) Stats() Stats { return p.snapshot() }
