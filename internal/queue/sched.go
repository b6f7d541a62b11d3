// Package queue implements the messaging instance of an IOP: the inbound
// frame scheduler with the I2O dispatch discipline.
//
// The paper (§4): "For scheduling the dispatching of messages we follow the
// algorithm given in the I2O specification.  There exist seven priority
// levels and for each one the messages are scheduled to a FIFO.  All
// devices are then dispatched in round-robin manner."  Sched implements
// exactly that: per priority level, frames are queued FIFO per target
// device, and within a level the scheduler serves the devices that have
// pending frames in round-robin order.  Lower levels preempt higher ones
// between frames (never mid-handler: the loop of control stays in the
// executive).
package queue

import (
	"errors"
	"sync"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
)

// Errors.
var (
	// ErrFull reports a push to a scheduler at capacity.
	ErrFull = errors.New("queue: full")

	// ErrClosed reports a push to a closed scheduler.
	ErrClosed = errors.New("queue: closed")
)

// devQueue is one device's FIFO within one priority level.
type devQueue struct {
	tid i2o.TID
	q   deque
}

// devRing is a growable circular buffer of device queues.  Unlike the
// slice-trick ring it replaces (`ring = append(ring[1:], dq)`), rotating a
// device to the back never allocates, which matters on the per-frame hot
// path.
type devRing struct {
	buf  []*devQueue
	head int
	n    int
}

func (r *devRing) len() int { return r.n }

func (r *devRing) at(i int) *devQueue { return r.buf[(r.head+i)%len(r.buf)] }

func (r *devRing) pushBack(dq *devQueue) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = dq
	r.n++
}

func (r *devRing) popFront() *devQueue {
	dq := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return dq
}

// removeAt removes the element at logical index i, preserving the order of
// the remaining elements.
func (r *devRing) removeAt(i int) {
	if i == 0 {
		r.popFront()
		return
	}
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
	}
	r.buf[(r.head+r.n-1)%len(r.buf)] = nil
	r.n--
}

func (r *devRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*devQueue, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// level is one priority level: the set of devices with pending frames, in
// round-robin order.  Serving a device rotates it to the back of the ring;
// a device that becomes active (re-)enters at the back, so no device is
// served twice before every other pending device is served once.
//
// Device queues are retained in byTID when they drain empty: TIDs are
// 12-bit, so the retained set is bounded, and reusing the entry keeps the
// steady-state push path allocation-free.
type level struct {
	ring  devRing
	byTID map[i2o.TID]*devQueue
}

func (l *level) push(it item) {
	if l.byTID == nil {
		l.byTID = make(map[i2o.TID]*devQueue)
	}
	dq, ok := l.byTID[it.m.Target]
	if !ok {
		dq = &devQueue{tid: it.m.Target}
		l.byTID[it.m.Target] = dq
	}
	if dq.q.len() == 0 {
		l.ring.pushBack(dq)
	}
	dq.q.pushBack(it)
}

func (l *level) pop() item {
	if l.ring.len() == 0 {
		return item{}
	}
	dq := l.ring.popFront()
	it := dq.q.popFront()
	if dq.q.len() > 0 {
		l.ring.pushBack(dq)
	}
	return it
}

// popEligible pops the round-robin-first frame whose target device is not
// checked out.  A device whose head frame is a correlation reply (see
// Exclusive) is always eligible: replies are matched to a parked waiter by
// context, never upcalled into the device handler, so they need no
// serialization against an in-flight dispatch.  Popping an exclusive frame
// checks its device out by adding it to busy.
func (l *level) popEligible(busy map[i2o.TID]struct{}) (item, bool) {
	for i := 0; i < l.ring.len(); i++ {
		dq := l.ring.at(i)
		excl := Exclusive(dq.q.front().m)
		if excl {
			if _, b := busy[dq.tid]; b {
				continue
			}
		}
		it := dq.q.popFront()
		l.ring.removeAt(i)
		if dq.q.len() > 0 {
			l.ring.pushBack(dq)
		}
		if excl {
			busy[dq.tid] = struct{}{}
		}
		return it, true
	}
	return item{}, false
}

// Sched is the inbound scheduler.  It is safe for concurrent use.
// PopExclusiveBatch plus DeviceDone serve N consumers while preserving the
// I2O discipline (per-device FIFO with at most one exclusive frame of a
// device in flight at a time).
type Sched struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	levels   [i2o.NumPriorities]level
	size     int
	capacity int
	closed   bool
	waitObs  WaitObserver

	// busy is the set of devices checked out by PopExclusiveBatch and not
	// yet returned by DeviceDone.  epoch increments on Interrupt so blocked
	// consumers can be bounced out of their wait to re-check external state.
	busy  map[i2o.TID]struct{}
	epoch uint64
}

// Exclusive reports whether dispatching m requires exclusive checkout of
// its target device.  Correlation replies (reply flag plus a nonzero
// initiator context) are matched to the parked requester by context and
// never enter the device handler, so they dispatch concurrently with the
// device's in-flight frame; everything else is serialized per device.
func Exclusive(m *i2o.Message) bool {
	return !(m.Flags.Has(i2o.FlagReply) && m.InitiatorContext != 0)
}

// WaitObserver receives the time one frame spent queued, per priority
// level.  The executive installs one that feeds the per-priority
// exec.queue.wait histograms.
type WaitObserver func(p i2o.Priority, wait time.Duration)

// SetWaitObserver installs (or clears, with nil) the wait-time observer.
// Frames are only timestamped while an observer is installed and
// metrics.Enabled() is true — the same gating discipline as the whitebox
// probes, so the blackbox configuration never reads the clock.
func (s *Sched) SetWaitObserver(fn WaitObserver) {
	s.mu.Lock()
	s.waitObs = fn
	s.mu.Unlock()
}

// NewSched returns a scheduler bounded at capacity frames (0 means
// unbounded).  A full scheduler rejects pushes with ErrFull: the executive
// turns that into a FailResources reply rather than blocking a transport.
func NewSched(capacity int) *Sched {
	s := &Sched{capacity: capacity, busy: make(map[i2o.TID]struct{})}
	s.notEmpty = sync.NewCond(&s.mu)
	return s
}

// Push enqueues a frame according to its priority and target.
func (s *Sched) Push(m *i2o.Message) error {
	if !m.Priority.Valid() {
		return i2o.ErrBadPriority
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.capacity > 0 && s.size >= s.capacity {
		s.mu.Unlock()
		return ErrFull
	}
	it := item{m: m}
	if s.waitObs != nil && metrics.Enabled() {
		it.at = time.Now()
	}
	s.levels[m.Priority].push(it)
	s.size++
	s.mu.Unlock()
	s.notEmpty.Signal()
	return nil
}

func (s *Sched) popLocked() *i2o.Message {
	for p := range s.levels {
		if it := s.levels[p].pop(); it.m != nil {
			s.size--
			if !it.at.IsZero() && s.waitObs != nil {
				s.waitObs(i2o.Priority(p), time.Since(it.at))
			}
			return it.m
		}
	}
	panic("queue: size positive but all levels empty")
}

// PopExclusiveBatch blocks until at least one eligible frame is available
// and fills dst with up to len(dst) of them, checking out the target device
// of every exclusive frame popped (see Exclusive).  The consumer must call
// DeviceDone for each checked-out device once its dispatch ends; frames for
// checked-out devices stay queued, so per-device FIFO order and
// at-most-one-in-flight are preserved across N concurrent consumers while
// an eligible frame is never held back by an unrelated slow device.
//
// lastEpoch is the caller's record of the interrupt epoch, carried across
// calls (start it at zero).  Whenever the scheduler's epoch differs — an
// Interrupt fired since the caller last looked, even between its calls —
// the call syncs *lastEpoch and returns (0, true) immediately, so a
// consumer can never sleep through an interrupt by arriving just after it.
//
// It returns (n, true) with n > 0 on success, (0, true) on an interrupt
// bounce (the caller should re-check its control state and come back), and
// (0, false) once the scheduler is closed and drained.
func (s *Sched) PopExclusiveBatch(dst []*i2o.Message, lastEpoch *uint64) (int, bool) {
	if len(dst) == 0 {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != *lastEpoch {
		*lastEpoch = s.epoch
		return 0, true
	}
	for {
		n := 0
		for n < len(dst) {
			it, ok := s.popEligibleLocked()
			if !ok {
				break
			}
			dst[n] = it
			n++
		}
		if n > 0 {
			if s.size > 0 {
				// More frames remain (possibly eligible for another
				// consumer): chain the wakeup rather than leaving a peer
				// blocked until the next Push.
				s.notEmpty.Signal()
			}
			return n, true
		}
		if s.closed && s.size == 0 {
			return 0, false
		}
		s.notEmpty.Wait()
		if s.epoch != *lastEpoch {
			*lastEpoch = s.epoch
			return 0, true
		}
	}
}

func (s *Sched) popEligibleLocked() (*i2o.Message, bool) {
	for p := range s.levels {
		if it, ok := s.levels[p].popEligible(s.busy); ok {
			s.size--
			if !it.at.IsZero() && s.waitObs != nil {
				s.waitObs(i2o.Priority(p), time.Since(it.at))
			}
			return it.m, true
		}
	}
	return nil, false
}

// DeviceDone returns a device checked out by PopExclusiveBatch, making its
// queued frames eligible again and waking a blocked consumer if frames are
// pending.
func (s *Sched) DeviceDone(tid i2o.TID) {
	s.mu.Lock()
	delete(s.busy, tid)
	pending := s.size > 0
	closed := s.closed
	s.mu.Unlock()
	if pending {
		if closed {
			// During drain every consumer must re-check: the one woken by
			// Signal might not be the one able to exit.
			s.notEmpty.Broadcast()
		} else {
			s.notEmpty.Signal()
		}
	}
}

// Interrupt bounces every consumer blocked in PopExclusiveBatch, which
// returns (0, true) so callers re-evaluate external control state (the
// executive uses this to retire surplus dispatch workers).
func (s *Sched) Interrupt() {
	s.mu.Lock()
	s.epoch++
	s.mu.Unlock()
	s.notEmpty.Broadcast()
}

// Close wakes all blocked consumers.  PopExclusiveBatch still hands out the
// remaining frames and reports closed once none are left; pushes after
// Close fail with ErrClosed.
func (s *Sched) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
}

// Drain removes and returns all pending frames (used on shutdown so their
// pool buffers can be released).
func (s *Sched) Drain() []*i2o.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*i2o.Message, 0, s.size)
	for s.size > 0 {
		out = append(out, s.popLocked())
	}
	return out
}

// Len returns the number of queued frames.
func (s *Sched) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// LevelLen returns the number of frames queued at one priority level.
func (s *Sched) LevelLen(p i2o.Priority) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, dq := range s.levels[p].byTID {
		n += dq.q.len()
	}
	return n
}
