// Package pci simulates the hardware-FIFO messaging of an intelligent I/O
// board on a PCI segment — the IOP480-based processor board of the paper's
// ongoing-work section ("the board gives I2O support through hardware
// FIFOs, which will allow us to provide communication efficiency
// measurements with and without hardware support").
//
// Endpoints on a segment exchange frame *pointers* through fixed-depth
// inbound FIFOs, modelling figure 2: the host posts a pointer to an I2O
// frame into the IOP's inbound FIFO and the device modules post replies to
// the outbound queue.  A full FIFO blocks the writer, as real message
// units stall the PCI write.  Because only pointers cross, the transport
// is zero-copy like loopback but with hardware-realistic backpressure, and
// it supports both polling and task mode.
package pci

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
)

// PTName is the default route name.
const PTName = "pt.pci"

// DefaultDepth is the hardware FIFO depth used when the segment is built
// with depth <= 0; real messaging units have small fixed depths.
const DefaultDepth = 16

// Errors.
var (
	// ErrClosed reports use of a detached endpoint.
	ErrClosed = errors.New("pci: closed")

	// ErrUnknownNode reports a send to a node not on this segment.
	ErrUnknownNode = errors.New("pci: unknown node")

	// ErrDuplicateNode reports attaching one node twice.
	ErrDuplicateNode = errors.New("pci: node already attached")
)

// envelope is one FIFO slot: the frame pointer plus its source.
type envelope struct {
	src i2o.NodeID
	m   *i2o.Message
}

// Segment is one PCI bus segment.
type Segment struct {
	depth int
	mu    sync.RWMutex
	eps   map[i2o.NodeID]*Endpoint
}

// NewSegment builds a segment whose endpoints have FIFOs of the given
// depth (DefaultDepth when <= 0).
func NewSegment(depth int) *Segment {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Segment{depth: depth, eps: make(map[i2o.NodeID]*Endpoint)}
}

// Attach adds one endpoint to the segment.
func (s *Segment) Attach(node i2o.NodeID) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.eps[node]; dup {
		return nil, fmt.Errorf("%w: %v", ErrDuplicateNode, node)
	}
	ep := &Endpoint{
		segment: s,
		node:    node,
		fifo:    make(chan envelope, s.depth),
		done:    make(chan struct{}),
	}
	ep.SetMetrics(metrics.Default)
	s.eps[node] = ep
	return ep, nil
}

func (s *Segment) lookup(node i2o.NodeID) *Endpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eps[node]
}

func (s *Segment) detach(node i2o.NodeID) {
	s.mu.Lock()
	delete(s.eps, node)
	s.mu.Unlock()
}

// Endpoint is one node's messaging unit on the segment.
type Endpoint struct {
	segment *Segment
	node    i2o.NodeID
	fifo    chan envelope
	done    chan struct{}
	closed  atomic.Bool

	taskMu   sync.Mutex
	taskDone chan struct{}

	cmu       sync.RWMutex
	nSent     *metrics.Counter
	nRecv     *metrics.Counter
	nFifoFull *metrics.Counter

	flt faults.Hook
}

// SetFaults installs a fault injector on the send path; nil removes it.
func (e *Endpoint) SetFaults(in *faults.Injector) { e.flt.Set(in) }

// SetMetrics redirects the endpoint's counters (pt.pci.sent, .recv,
// .fifoFull) into reg, normally the owning executive's registry.  Call it
// before the endpoint carries traffic.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.cmu.Lock()
	e.nSent = reg.Counter(PTName + ".sent")
	e.nRecv = reg.Counter(PTName + ".recv")
	e.nFifoFull = reg.Counter(PTName + ".fifoFull")
	e.cmu.Unlock()
}

func (e *Endpoint) counters() (sent, recv, full *metrics.Counter) {
	e.cmu.RLock()
	defer e.cmu.RUnlock()
	return e.nSent, e.nRecv, e.nFifoFull
}

var _ pta.PeerTransport = (*Endpoint)(nil)

// Name implements pta.PeerTransport.
func (e *Endpoint) Name() string { return PTName }

// Send implements pta.PeerTransport: the frame pointer is posted into the
// destination's inbound FIFO, blocking while it is full.
func (e *Endpoint) Send(dst i2o.NodeID, m *i2o.Message) error {
	copies, err := e.flt.Apply(dst, m)
	if copies == 0 {
		return err
	}
	if copies == 2 {
		// A doubled doorbell write: the duplicate descriptor lands in the
		// FIFO just before the original.
		if err := e.post(dst, m.Dup()); err != nil {
			m.Release()
			return err
		}
	}
	return e.post(dst, m)
}

// post places one frame in dst's inbound FIFO, blocking while it is full.
func (e *Endpoint) post(dst i2o.NodeID, m *i2o.Message) error {
	peer := e.segment.lookup(dst)
	if peer == nil {
		m.Release()
		return fmt.Errorf("%w: %v", ErrUnknownNode, dst)
	}
	sent, _, full := e.counters()
	env := envelope{src: e.node, m: m}
	// First try without blocking so a full hardware FIFO is visible in the
	// fifoFull counter — the stall a real message unit turns into a held
	// PCI write.
	select {
	case peer.fifo <- env:
		sent.Inc()
		return nil
	default:
		full.Inc()
	}
	select {
	case peer.fifo <- env:
		sent.Inc()
		return nil
	case <-peer.done:
		m.Release()
		return ErrClosed
	case <-e.done:
		m.Release()
		return ErrClosed
	}
}

// Poll implements pta.PeerTransport (polling mode): the executive scans
// the hardware FIFO.
func (e *Endpoint) Poll(fn pta.Deliver, budget int) int {
	n := 0
	for n < budget {
		select {
		case env := <-e.fifo:
			_, recv, _ := e.counters()
			recv.Inc()
			if err := fn(env.src, env.m); err != nil {
				return n
			}
			n++
		default:
			return n
		}
	}
	return n
}

// Start implements pta.PeerTransport (task mode).
func (e *Endpoint) Start(fn pta.Deliver) error {
	e.taskMu.Lock()
	defer e.taskMu.Unlock()
	if e.taskDone != nil {
		return fmt.Errorf("pci: %v already started", e.node)
	}
	done := make(chan struct{})
	e.taskDone = done
	go func() {
		defer close(done)
		for {
			select {
			case env := <-e.fifo:
				_, recv, _ := e.counters()
				recv.Inc()
				_ = fn(env.src, env.m)
			case <-e.done:
				return
			}
		}
	}()
	return nil
}

// Stop implements pta.PeerTransport: detaches from the segment and
// releases queued frames.
func (e *Endpoint) Stop() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.segment.detach(e.node)
	close(e.done)
	e.taskMu.Lock()
	done := e.taskDone
	e.taskDone = nil
	e.taskMu.Unlock()
	if done != nil {
		<-done
	}
	for {
		select {
		case env := <-e.fifo:
			env.m.Release()
		default:
			return nil
		}
	}
}
