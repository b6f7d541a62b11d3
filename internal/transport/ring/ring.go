// Package ring implements the bounded send descriptor queue behind the
// batched remote data path.  It mirrors the GM NIC model of the paper's
// testbed (a fixed-depth ring of send descriptors drained by the LANai
// service loop, see internal/transport/gm): producers enqueue frame
// descriptors without blocking, a single consumer drains everything queued
// in one batch and puts it on the wire with a single vectored write.
//
// The queue is multi-producer single-consumer.  Push never blocks: a full
// ring is reported to the caller, which maps it to queue.ErrFull so the
// agent's retry policy treats it as transient backpressure — the software
// equivalent of GM send token exhaustion.  PopBatch copies the queued
// descriptors into a caller-owned slice, so the steady state allocates
// nothing on either side.
package ring

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Errors.
var (
	// ErrFull reports a push onto a ring at capacity.
	ErrFull = errors.New("ring: full")

	// ErrClosed reports a push onto a closed ring.
	ErrClosed = errors.New("ring: closed")
)

// DefaultDepth is the ring capacity used when the owner does not choose
// one.  GM's hardware ring holds 64 descriptors; the software ring defaults
// deeper because frames here are only pointers and a deeper ring lets more
// senders ride out one slow write.
const DefaultDepth = 512

// Queue is a bounded multi-producer single-consumer descriptor queue.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	depth  int
	closed bool

	// signal wakes the consumer; capacity 1 so producers never block on it
	// and repeated pushes coalesce into one wakeup (that coalescing is what
	// turns a burst of sends into a single vectored write downstream).
	signal chan struct{}

	// busy is true from the moment PopBatch hands descriptors to the
	// consumer until the consumer calls Done.  Together with an empty ring
	// it defines Idle: no descriptor is queued or in the consumer's hands.
	busy atomic.Bool
}

// New returns a ring holding up to depth descriptors (depth <= 0 selects
// DefaultDepth).
func New[T any](depth int) *Queue[T] {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Queue[T]{
		items:  make([]T, 0, depth),
		depth:  depth,
		signal: make(chan struct{}, 1),
	}
}

// Len returns the number of queued descriptors.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	n := len(q.items)
	q.mu.Unlock()
	return n
}

// Push enqueues one descriptor and wakes the consumer.  It never blocks:
// a ring at capacity returns ErrFull, a closed ring ErrClosed.
func (q *Queue[T]) Push(v T) error {
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return ErrClosed
	case len(q.items) >= q.depth:
		q.mu.Unlock()
		return ErrFull
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.wake()
	return nil
}

func (q *Queue[T]) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// PopBatch moves every queued descriptor into dst (reusing its capacity)
// and reports whether the ring is closed.  Only the single consumer may
// call it.  Queue slots are zeroed so the ring never pins descriptors it
// no longer owns.
func (q *Queue[T]) PopBatch(dst []T) ([]T, bool) {
	q.mu.Lock()
	dst = append(dst[:0], q.items...)
	var zero T
	for i := range q.items {
		q.items[i] = zero
	}
	q.items = q.items[:0]
	closed := q.closed
	if len(dst) > 0 {
		// Mark the consumer busy before releasing the lock: an Idle caller
		// that observes the ring empty is thereby guaranteed to also observe
		// busy, so descriptors in flight between PopBatch and Done are never
		// invisible.
		q.busy.Store(true)
	}
	q.mu.Unlock()
	return dst, closed
}

// Done marks the batch handed out by the last PopBatch as fully resolved
// (written, failed or abandoned).  Only the single consumer may call it.
func (q *Queue[T]) Done() { q.busy.Store(false) }

// Idle reports that no descriptor is queued on the ring or held by the
// consumer between PopBatch and Done.  The rendezvous send path uses it as
// its ordering gate: a large frame may bypass the ring only while every
// earlier ring frame for the same peer is already on the wire — a frame a
// producer pushed before calling Idle is always observed (Push and Idle
// synchronize on the ring mutex), so per-producer FIFO order holds across
// the eager and rendezvous lanes.
func (q *Queue[T]) Idle() bool {
	q.mu.Lock()
	n := len(q.items)
	q.mu.Unlock()
	return n == 0 && !q.busy.Load()
}

// Wait blocks until a push (or Close) signals, or stop fires; it returns
// false only for stop.  A true return does not guarantee a non-empty ring
// (the signal is coalescing) — the consumer loops PopBatch/Wait.
func (q *Queue[T]) Wait(stop <-chan struct{}) bool {
	select {
	case <-q.signal:
		return true
	case <-stop:
		return false
	}
}

// Close marks the ring closed and wakes the consumer so it can drain the
// remaining descriptors and exit.  Pushes after Close fail with ErrClosed.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}
