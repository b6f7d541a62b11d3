// Package loopback implements an in-process peer transport: executives in
// the same address space exchange frame pointers directly, with no
// serialization at all.  It is the degenerate case of the peer transport
// architecture of §3.4/figure 4 — a PT is "an ordinary device class" and
// the fabric behind it can be anything, including shared memory on one
// host (§2 lists "shared memory (e.g. PCI)" among the interconnect
// technologies to support).  As the cheapest possible transport it is the
// reference point for measuring what any other transport adds, and it
// lets examples and tests build multi-node clusters inside one process.
package loopback

import (
	"errors"
	"fmt"
	"sync"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
)

// DefaultName is the route name endpoints register under.
const DefaultName = "pt.loopback"

// Errors.
var (
	// ErrNotStarted reports a send to an endpoint whose owner has not
	// started task-mode delivery yet.
	ErrNotStarted = errors.New("loopback: peer not started")

	// ErrUnknownNode reports a send to a node with no endpoint.
	ErrUnknownNode = errors.New("loopback: unknown node")

	// ErrDuplicateNode reports two endpoints attached for one node.
	ErrDuplicateNode = errors.New("loopback: node already attached")
)

// Fabric connects loopback endpoints within one process.
type Fabric struct {
	mu    sync.RWMutex
	nodes map[i2o.NodeID]*Endpoint
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{nodes: make(map[i2o.NodeID]*Endpoint)}
}

// Attach creates the endpoint for one node.
func (f *Fabric) Attach(node i2o.NodeID) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nodes[node]; dup {
		return nil, fmt.Errorf("%w: %v", ErrDuplicateNode, node)
	}
	ep := &Endpoint{
		fabric: f,
		node:   node,
		cSent:  metrics.Default.Counter(DefaultName + ".sent"),
		cRecv:  metrics.Default.Counter(DefaultName + ".recv"),
	}
	f.nodes[node] = ep
	return ep, nil
}

func (f *Fabric) lookup(node i2o.NodeID) *Endpoint {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[node]
}

func (f *Fabric) detach(node i2o.NodeID) {
	f.mu.Lock()
	delete(f.nodes, node)
	f.mu.Unlock()
}

// Endpoint is one node's loopback transport.  It implements
// pta.PeerTransport in task mode: delivery happens synchronously on the
// sender's goroutine (an Inject into the peer's inbound scheduler).
type Endpoint struct {
	fabric *Fabric
	node   i2o.NodeID

	mu      sync.RWMutex
	deliver pta.Deliver
	cSent   *metrics.Counter
	cRecv   *metrics.Counter

	flt faults.Hook
}

// SetFaults installs a fault injector on the send path; nil removes it.
func (e *Endpoint) SetFaults(in *faults.Injector) { e.flt.Set(in) }

// SetMetrics redirects the endpoint's frame counters into reg (normally
// the owning executive's registry).  Call it before the endpoint carries
// traffic.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.mu.Lock()
	e.cSent = reg.Counter(DefaultName + ".sent")
	e.cRecv = reg.Counter(DefaultName + ".recv")
	e.mu.Unlock()
}

var _ pta.PeerTransport = (*Endpoint)(nil)

// Name implements pta.PeerTransport.
func (e *Endpoint) Name() string { return DefaultName }

// Node returns the attached node identity.
func (e *Endpoint) Node() i2o.NodeID { return e.node }

// Send implements pta.PeerTransport: the frame pointer crosses directly
// into the destination executive.  Zero copies.
func (e *Endpoint) Send(dst i2o.NodeID, m *i2o.Message) error {
	copies, err := e.flt.Apply(dst, m)
	if copies == 0 {
		return err
	}
	if copies == 2 {
		// The receiver consumes (and recycles) each delivered frame, so
		// the duplicate must be an independent clone of the original.
		if err := e.deliverTo(dst, m.Dup()); err != nil {
			m.Release()
			return err
		}
	}
	return e.deliverTo(dst, m)
}

func (e *Endpoint) deliverTo(dst i2o.NodeID, m *i2o.Message) error {
	peer := e.fabric.lookup(dst)
	if peer == nil {
		m.Release()
		return fmt.Errorf("%w: %v", ErrUnknownNode, dst)
	}
	peer.mu.RLock()
	deliver := peer.deliver
	recv := peer.cRecv
	peer.mu.RUnlock()
	if deliver == nil {
		m.Release()
		return fmt.Errorf("%w: %v", ErrNotStarted, dst)
	}
	e.mu.RLock()
	e.cSent.Inc()
	e.mu.RUnlock()
	recv.Inc()
	return deliver(e.node, m)
}

// Start implements pta.PeerTransport (task mode).
func (e *Endpoint) Start(fn pta.Deliver) error {
	e.mu.Lock()
	e.deliver = fn
	e.mu.Unlock()
	return nil
}

// Poll implements pta.PeerTransport.  Loopback is push-only; there is
// never anything to poll.
func (e *Endpoint) Poll(pta.Deliver, int) int { return 0 }

// Stop implements pta.PeerTransport.
func (e *Endpoint) Stop() error {
	e.mu.Lock()
	e.deliver = nil
	e.mu.Unlock()
	e.fabric.detach(e.node)
	return nil
}
