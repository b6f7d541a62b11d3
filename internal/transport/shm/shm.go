// Package shm implements a shared-memory peer transport: executives on
// the same host exchange encoded I2O frames through mmap'd per-peer
// descriptor rings, so colocated processes move data without crossing the
// kernel.  It is the "shared memory (e.g. PCI)" interconnect of §2 of the
// paper realized for separate OS processes — the loopback transport covers
// executives in one address space, TCP covers distinct hosts, and shm
// covers the middle: distinct processes, one machine.
//
// The model matches the gm/tcp transports: one SPSC ring per direction
// per peer pair (see ring.go for the byte layout), record words framing
// each encoded message, and ring-full backpressure surfaced as a
// transient error that feeds the PTA retry policy.  Receivers copy each
// frame out of the ring into a pool block before delivery, so ring slots
// recycle immediately and frames keep the executive's zero-copy
// reference-counted lifecycle from the first in-process hop on.
package shm

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/queue"
	"xdaq/internal/transport/faults"
)

// PTName is the default route name.
const PTName = "pt.shm"

// DefaultRingBytes is the per-direction ring data size.
const DefaultRingBytes = 1 << 20

// Errors.
var (
	// ErrClosed reports use after Stop.
	ErrClosed = errors.New("shm: transport stopped")

	// ErrUnknownPeer reports a send to a node never passed to AddPeer.
	ErrUnknownPeer = errors.New("shm: unknown peer (AddPeer first)")

	// ErrFrameTooLarge reports a frame that could never fit the ring.
	ErrFrameTooLarge = errors.New("shm: frame too large for ring")

	// ErrRingFull reports a peer ring with no room for the frame.  It
	// wraps queue.ErrFull (the public ErrQueueFull sentinel) and
	// pta.ErrTransient so the agent's retry policy backs off and
	// resends, exactly like the gm and tcp rings.
	ErrRingFull = fmt.Errorf("shm: peer ring full: %w (%w)", queue.ErrFull, pta.ErrTransient)
)

// Config configures a Transport.
type Config struct {
	// Name overrides the route name; defaults to PTName.
	Name string

	// Dir is the ring directory shared by the colocated executives.
	// Every member of one shm fabric must use the same directory, and a
	// fresh directory per cluster incarnation (stale ring files from a
	// crashed run are not rejoined — they carry dead cursors).
	Dir string

	// RingBytes is the per-direction ring capacity; <=0 selects
	// DefaultRingBytes.  All endpoints sharing Dir must agree.
	RingBytes int

	// Metrics receives the transport's counters (<name>.sent, .recv,
	// .ring.full, .sendErrors); defaults to metrics.Default.
	Metrics *metrics.Registry
}

// Transport is one node's endpoint on a shared-memory fabric.  It
// implements pta.PeerTransport in both modes: polling (the agent's scan
// loop drains the inbound rings) and task (Start spawns an adaptive
// spin-then-sleep poller).
type Transport struct {
	node      i2o.NodeID
	alloc     pool.Allocator
	name      string
	dir       string
	ringBytes int

	mu      sync.Mutex
	out     map[i2o.NodeID]*ring
	in      map[i2o.NodeID]*ring
	deliver pta.Deliver
	started bool
	stop    chan struct{}
	done    chan struct{}

	// inScan is the poll loop's lock-free snapshot of inbound rings.
	inScan atomic.Pointer[[]inRing]
	rr     int // round-robin poll start, poll-loop-owned

	closed atomic.Bool
	flt    faults.Hook

	cSent, cRecv, cFull, cErr *metrics.Counter
}

type inRing struct {
	src i2o.NodeID
	r   *ring
}

var _ pta.PeerTransport = (*Transport)(nil)

// New creates the endpoint and its ring directory.
func New(node i2o.NodeID, alloc pool.Allocator, cfg Config) (*Transport, error) {
	if cfg.Dir == "" {
		return nil, errors.New("shm: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	name := cfg.Name
	if name == "" {
		name = PTName
	}
	rb := cfg.RingBytes
	if rb <= 0 {
		rb = DefaultRingBytes
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	t := &Transport{
		node:      node,
		alloc:     alloc,
		name:      name,
		dir:       cfg.Dir,
		ringBytes: rb,
		out:       make(map[i2o.NodeID]*ring),
		in:        make(map[i2o.NodeID]*ring),
		cSent:     reg.Counter(name + ".sent"),
		cRecv:     reg.Counter(name + ".recv"),
		cFull:     reg.Counter(name + ".ring.full"),
		cErr:      reg.Counter(name + ".sendErrors"),
	}
	t.inScan.Store(&[]inRing{})
	return t, nil
}

// Name implements pta.PeerTransport.
func (t *Transport) Name() string { return t.name }

// Node returns the attached node identity.
func (t *Transport) Node() i2o.NodeID { return t.node }

// SetFaults installs a fault injector on the send path; nil removes it.
func (t *Transport) SetFaults(in *faults.Injector) { t.flt.Set(in) }

// AddPeer maps both ring directions for peer, creating the files as
// needed.  Idempotent.
func (t *Transport) AddPeer(peer i2o.NodeID) error {
	if peer == t.node {
		return fmt.Errorf("shm: cannot peer node %v with itself", peer)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if _, ok := t.out[peer]; ok {
		return nil
	}
	out, err := openRing(t.dir, t.node, peer, t.ringBytes)
	if err != nil {
		return err
	}
	in, err := openRing(t.dir, peer, t.node, t.ringBytes)
	if err != nil {
		out.close()
		return err
	}
	t.out[peer] = out
	t.in[peer] = in
	scan := make([]inRing, 0, len(t.in))
	for src, r := range t.in {
		scan = append(scan, inRing{src: src, r: r})
	}
	t.inScan.Store(&scan)
	return nil
}

// Send implements pta.PeerTransport: encode the frame into the peer's
// ring and recycle it.  On error the frame's buffer is released but the
// struct is left intact, matching the gm/tcp convention, so the agent's
// retry policy can re-attach and resend it.
func (t *Transport) Send(dst i2o.NodeID, m *i2o.Message) error {
	if t.closed.Load() {
		m.Release()
		return ErrClosed
	}
	copies, err := t.flt.Apply(dst, m)
	if copies == 0 {
		if err != nil {
			t.cErr.Inc()
		}
		return err
	}
	t.mu.Lock()
	r := t.out[dst]
	t.mu.Unlock()
	if r == nil {
		m.Release()
		t.cErr.Inc()
		return fmt.Errorf("%w: %v", ErrUnknownPeer, dst)
	}
	// A duplicate is the same record pushed twice, back to back.
	for ; copies > 0; copies-- {
		if err := r.push(m); err != nil {
			m.Release()
			if errors.Is(err, queue.ErrFull) {
				t.cFull.Inc()
			} else {
				t.cErr.Inc()
			}
			return err
		}
		t.cSent.Inc()
	}
	m.Recycle()
	return nil
}

// Poll implements pta.PeerTransport: drain up to budget frames from the
// inbound rings, round-robin across peers.  Single consumer: only one
// goroutine (the agent's scan loop or the task-mode poller) may call it.
func (t *Transport) Poll(fn pta.Deliver, budget int) int {
	scan := *t.inScan.Load()
	if len(scan) == 0 || budget <= 0 {
		return 0
	}
	n := 0
	t.rr++
	for i := 0; i < len(scan) && n < budget; i++ {
		ir := scan[(t.rr+i)%len(scan)]
		n += t.drain(ir.src, ir.r, fn, budget-n)
	}
	return n
}

// drain copies pending records out of one ring into pool blocks and
// delivers them.
func (t *Transport) drain(src i2o.NodeID, r *ring, fn pta.Deliver, budget int) int {
	n := 0
	for n < budget {
		frame, adv, ok := r.next()
		if !ok {
			return n
		}
		buf, err := t.alloc.Alloc(len(frame))
		if err != nil {
			// Pool exhausted: leave the record in the ring and retry on
			// the next poll once receive blocks recycle.
			return n
		}
		copy(buf.Bytes(), frame)
		r.consume(adv) // slot recycled before dispatch, like tcp's streaming receive
		m, _, err := i2o.DecodeAcquired(buf.Bytes())
		if err != nil {
			buf.Release()
			t.cErr.Inc()
			n++
			continue
		}
		m.AttachBuffer(buf)
		t.cRecv.Inc()
		fn(src, m) // ownership passes; deliver releases on failure
		n++
	}
	return n
}

// Start implements pta.PeerTransport (task mode): an adaptive poller
// stays hot (yield-spinning) while frames flow, then sleeps in 200µs
// steps so an idle daemon does not burn a core.  Two details matter for
// latency.  The hot window is time-based rather than a spin count: a
// request/reply exchange leaves sub-millisecond gaps between frames, and
// a counted spin budget expires mid-gap — parking the poller into a
// sleep whose real resolution is the scheduler's, an order of magnitude
// above the ring's latency.  And the hot spin yields the processor, not
// just the Go scheduler: runtime.Gosched rotates goroutines inside this
// process, but the frame we are waiting for is produced by a *different*
// process, so on hosts with fewer cores than colocated executives a
// Gosched-only spin pins the CPU until the kernel preempts it — turning
// every ring hop into a full OS timeslice.  sched_yield hands the core
// to the runnable peer instead.
func (t *Transport) Start(fn pta.Deliver) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if t.started {
		return errors.New("shm: already started")
	}
	t.started = true
	t.deliver = fn
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go t.pollLoop(fn, t.stop, t.done)
	return nil
}

func (t *Transport) pollLoop(fn pta.Deliver, stop, done chan struct{}) {
	defer close(done)
	const hot = 500 * time.Microsecond
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if t.Poll(fn, 64) > 0 {
			last = time.Now()
			continue
		}
		if time.Since(last) < hot {
			runtime.Gosched()
			osYield()
			continue
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// osYield cedes the processor to any runnable thread of any process —
// the colocated executive filling our ring, in particular.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

// Stop implements pta.PeerTransport: halt the poller, unmap every ring
// and unlink the files this endpoint created.
func (t *Transport) Stop() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.mu.Lock()
	stop, done, started := t.stop, t.done, t.started
	t.mu.Unlock()
	if started {
		close(stop)
		<-done
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inScan.Store(&[]inRing{})
	for _, r := range t.out {
		r.close()
	}
	for _, r := range t.in {
		r.close()
	}
	t.out, t.in = map[i2o.NodeID]*ring{}, map[i2o.NodeID]*ring{}
	return nil
}
