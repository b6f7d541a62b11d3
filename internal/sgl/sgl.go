// Package sgl implements I2O Scatter-Gather Lists: chains of fixed-size
// buffer pool blocks that carry payloads longer than a single block.
//
// The paper (§4): "Memory is allocated in fixed sized blocks with a maximum
// length of 256 KB. Making use of I2O's Scatter-Gather Lists (SGL) or
// chaining blocks helps to transmit arbitrary length information."  A List
// owns references to its blocks; Retain/Release manage the whole chain, so
// a list travels through queues and transports exactly like a single frame
// payload.
package sgl

import (
	"errors"
	"fmt"
	"sync/atomic"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
)

// ErrRange reports an out-of-bounds offset or length.
var ErrRange = errors.New("sgl: offset out of range")

// List is a chain of pool blocks viewed as one contiguous byte sequence.
//
// A list is itself reference counted: it owns exactly one block reference
// per segment for its whole lifetime, and Retain/Release move the count of
// *holders of the list*, not of the blocks.  The blocks go back to their
// pool only when the last holder releases.  This is what makes the
// retain → send → release guard around an asynchronous transport safe: the
// guard's release must not tear the chain down while the transport's ring
// still holds the frame.
type List struct {
	segs   []*pool.Buffer
	length int
	refs   atomic.Int32
}

// A List is a frame body for gather-capable transports: attach one with
// i2o.Message.AttachList and the wire transports put each segment on the
// wire without flattening the chain.
var _ i2o.SegmentedPayload = (*List)(nil)

// DefaultSegment is the block size used by builders when the caller does
// not choose one: the paper's maximum block length.
const DefaultSegment = pool.MaxBlock

// Build allocates a list of total bytes, chaining blocks of segSize
// (segSize <= 0 selects DefaultSegment).  The content is uninitialized;
// use CopyFrom to fill it.
func Build(alloc pool.Allocator, total, segSize int) (*List, error) {
	if total < 0 {
		return nil, fmt.Errorf("%w: total %d", ErrRange, total)
	}
	if segSize <= 0 {
		segSize = DefaultSegment
	}
	if segSize > pool.MaxBlock {
		segSize = pool.MaxBlock
	}
	l := newList()
	for remaining := total; remaining > 0; {
		n := segSize
		if remaining < n {
			n = remaining
		}
		b, err := alloc.Alloc(n)
		if err != nil {
			l.Release()
			return nil, err
		}
		l.segs = append(l.segs, b)
		l.length += n
		remaining -= n
	}
	return l, nil
}

// FromBytes builds a list containing a copy of data, chained at segSize.
func FromBytes(alloc pool.Allocator, data []byte, segSize int) (*List, error) {
	l, err := Build(alloc, len(data), segSize)
	if err != nil {
		return nil, err
	}
	l.CopyFrom(0, data)
	return l, nil
}

// Len returns the total byte length of the list.
func (l *List) Len() int { return l.length }

// Segments returns the number of chained blocks.
func (l *List) Segments() int { return len(l.segs) }

// Segment returns the byte view of the i-th block.
func (l *List) Segment(i int) []byte { return l.segs[i].Bytes() }

// newList returns an empty list held once by the caller.
func newList() *List {
	l := &List{}
	l.refs.Store(1)
	return l
}

// Retain adds a holder of the list.  The blocks themselves are untouched:
// the list keeps its one reference per segment until the last holder lets
// go.
func (l *List) Retain() { l.refs.Add(1) }

// Release drops one holder.  When the last holder releases, every block's
// reference count is decremented, recycling those that reach zero, and the
// list must not be used afterwards.
func (l *List) Release() {
	if l.refs.Add(-1) != 0 {
		return
	}
	for i, s := range l.segs {
		s.Release()
		l.segs[i] = nil
	}
	l.segs = l.segs[:0]
	l.length = 0
}

// locate maps a list offset to (segment index, offset within segment).
func (l *List) locate(off int) (int, int, error) {
	if off < 0 || off > l.length {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrRange, off, l.length)
	}
	for i, s := range l.segs {
		if off < s.Len() {
			return i, off, nil
		}
		off -= s.Len()
	}
	return len(l.segs), 0, nil // off == length
}

// CopyFrom writes src into the list starting at off.  It fails if the write
// would run past the end of the list.
func (l *List) CopyFrom(off int, src []byte) error {
	if off < 0 || off+len(src) > l.length {
		return fmt.Errorf("%w: write [%d,%d) of %d", ErrRange, off, off+len(src), l.length)
	}
	i, so, _ := l.locate(off)
	for len(src) > 0 {
		n := copy(l.segs[i].Bytes()[so:], src)
		src = src[n:]
		i++
		so = 0
	}
	return nil
}

// CopyTo reads into dst starting at list offset off and returns the number
// of bytes copied (short at end of list).
func (l *List) CopyTo(off int, dst []byte) (int, error) {
	i, so, err := l.locate(off)
	if err != nil {
		return 0, err
	}
	total := 0
	for total < len(dst) && i < len(l.segs) {
		n := copy(dst[total:], l.segs[i].Bytes()[so:])
		total += n
		i++
		so = 0
	}
	return total, nil
}
