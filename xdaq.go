// Package xdaq is the public face of the XDAQ toolkit: a Go reproduction
// of "Architectural Software Support for Processing Clusters" (Gutleber et
// al., IEEE CLUSTER 2000) — the I2O-based distributed data acquisition
// framework developed at CERN for the CMS experiment.
//
// The model in one paragraph: every node in the processing cluster is an
// I2O I/O processor running an executive.  Applications are device
// classes — bundles of handlers for private I2O messages — addressed by
// node-local Target IDs (TiDs).  Remote devices appear behind local proxy
// TiDs, so callers never know whether a call is redirected (transparency
// of location).  Frames are scheduled through seven priority FIFOs and
// dispatched round-robin per device; payloads live in reference-counted
// buffer pool blocks for zero-copy operation; peer transports (simulated
// Myrinet/GM, TCP, in-process loopback, simulated PCI message units) carry
// frames between nodes under a Peer Transport Agent.
//
// Quick start:
//
//	a, _ := xdaq.NewNode(xdaq.NodeOptions{Name: "a", Node: 1})
//	b, _ := xdaq.NewNode(xdaq.NodeOptions{Name: "b", Node: 2})
//	defer a.Close()
//	defer b.Close()
//	xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(a, b))
//
//	echo := xdaq.NewDevice("echo", 0)
//	echo.Bind(1, func(ctx *xdaq.Context, m *xdaq.Message) error {
//	    return xdaq.ReplyIfExpected(ctx, m, m.Payload)
//	})
//	b.Plug(echo)
//
//	target, _ := a.Discover(2, "echo", 0)
//	reply, _ := a.CallContext(context.Background(), target, 1, []byte("ping"))
//	fmt.Printf("%s\n", reply) // "ping"
//
// Fault tolerance: Connect accepts a WithRetry policy for transient
// transport errors, and Node.StartHealth runs a peer liveness monitor
// that fails routes over to a backup fabric or turns a dead peer's
// requests into fast ErrPeerDown returns.  See doc/fault-tolerance.md.
package xdaq

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/health"
	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
)

// Re-exported core types.  The type aliases make the internal packages'
// documented APIs available to library users through one import.
type (
	// Message is one I2O message frame.
	Message = i2o.Message

	// TID is a node-local target identifier.
	TID = i2o.TID

	// NodeID identifies one IOP in the cluster.
	NodeID = i2o.NodeID

	// Priority is a frame scheduling level (0 most urgent, 7 levels).
	Priority = i2o.Priority

	// Param is a typed device parameter.
	Param = i2o.Param

	// Device is one device-class instance.
	Device = device.Device

	// Context gives handlers access to executive services.
	Context = device.Context

	// Handler processes one frame addressed to a device.
	Handler = device.Handler

	// Executive is the per-node runtime.
	Executive = executive.Executive
)

// Re-exported constants.
const (
	TIDExecutive = i2o.TIDExecutive

	PriorityUrgent  = i2o.PriorityUrgent
	PriorityHigh    = i2o.PriorityHigh
	PriorityNormal  = i2o.PriorityNormal
	PriorityLow     = i2o.PriorityLow
	PriorityBulk    = i2o.PriorityBulk
	PriorityDefault = i2o.PriorityDefault
)

// NewDevice creates a device-class instance; bind private handlers with
// Bind, then plug it into a node.
func NewDevice(class string, instance int) *Device { return device.New(class, instance) }

// ReplyIfExpected sends a success reply carrying payload when the request
// asked for one.
func ReplyIfExpected(ctx *Context, req *Message, payload []byte) error {
	return device.ReplyIfExpected(ctx, req, payload)
}

// NodeOptions configures a Node.
type NodeOptions struct {
	// Name tags logs and status reports.
	Name string

	// Node is the IOP identity; must be unique in the cluster.
	Node NodeID

	// Allocator selects the buffer pool scheme: "table" (default, the
	// paper's optimized allocator) or "fixed" (the original scheme).
	Allocator string

	// QueueCapacity bounds the inbound scheduler (0 = unbounded).
	QueueCapacity int

	// RequestTimeout bounds synchronous calls (default 5s).
	RequestTimeout time.Duration

	// Watchdog bounds handler run time (0 = disabled, the fast path).
	Watchdog time.Duration

	// Dispatchers is the number of parallel dispatch workers (0 or 1 = the
	// paper's single loop of control).  N > 1 dispatches distinct devices
	// on distinct cores while keeping per-device FIFO order and
	// at-most-one-in-flight per device, so handlers need no new locking.
	// Also settable per Connect call via WithDispatchers.
	Dispatchers int

	// DispatchBatch caps frames drained from the scheduler per lock
	// acquisition (0 = 1: full priority preemption and slow-device
	// isolation; larger batches trade those for scheduler-lock
	// amortization).
	DispatchBatch int

	// Logf sinks diagnostics (default: standard logger).
	Logf func(format string, args ...any)
}

// Node is one cluster member: an executive plus its peer transport agent.
type Node struct {
	// Exec is the underlying executive, exposed for advanced use
	// (AllocMessage, timers, the address table).
	Exec *Executive

	// Agent is the peer transport agent.
	Agent *pta.Agent

	health atomic.Pointer[health.Monitor]
}

// NewNode builds and starts a node.
func NewNode(opts NodeOptions) (*Node, error) {
	var alloc pool.Allocator
	switch opts.Allocator {
	case "", "table":
		alloc = pool.NewTable(0)
	case "fixed":
		var err error
		alloc, err = pool.NewFixed(pool.DefaultFixedClasses())
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("xdaq: unknown allocator %q (want table or fixed)", opts.Allocator)
	}
	e := executive.New(executive.Options{
		Name:           opts.Name,
		Node:           opts.Node,
		Allocator:      alloc,
		QueueCapacity:  opts.QueueCapacity,
		RequestTimeout: opts.RequestTimeout,
		Watchdog:       opts.Watchdog,
		Dispatchers:    opts.Dispatchers,
		DispatchBatch:  opts.DispatchBatch,
		Logf:           opts.Logf,
	})
	agent, err := pta.New(e)
	if err != nil {
		e.Close()
		return nil, err
	}
	return &Node{Exec: e, Agent: agent}, nil
}

// Close shuts the node down: the health monitor first, then the
// transports, then the executive.
func (n *Node) Close() {
	if mon := n.health.Swap(nil); mon != nil {
		mon.Close()
	}
	n.Agent.Close()
	n.Exec.Close()
}

// Plug registers a device module and returns its TiD.
func (n *Node) Plug(d *Device) (TID, error) { return n.Exec.Plug(d) }

// Unplug removes a device module.
func (n *Node) Unplug(id TID) error { return n.Exec.Unplug(id) }

// Discover resolves (class, instance) on a remote node, creating a local
// proxy TiD for it.
func (n *Node) Discover(node NodeID, class string, instance int) (TID, error) {
	return n.Exec.Discover(node, class, instance)
}

// Resolve returns the local TiD for a known device (local, or a proxy
// created earlier).
func (n *Node) Resolve(class string, instance int, node NodeID) (TID, error) {
	return n.Exec.Resolve(class, instance, node)
}

// Send delivers a fire-and-forget private frame to target.
func (n *Node) Send(target TID, xfunc uint16, payload []byte) error {
	m, err := n.message(target, xfunc, payload)
	if err != nil {
		return err
	}
	return n.Exec.Send(m)
}

// Call sends a private frame to target and returns the reply payload,
// bounded by the node's default request timeout.  It is CallContext with
// a background context.
func (n *Node) Call(target TID, xfunc uint16, payload []byte) ([]byte, error) {
	return n.CallContext(context.Background(), target, xfunc, payload)
}

// CallContext sends a private frame to target and returns the reply
// payload.  The context's deadline bounds the call (falling back to the
// node's request timeout when it has none) and cancelling it abandons the
// call immediately — the frame's buffer is released and the pending reply
// slot is torn down.  Failures wrap the package sentinels: ErrPeerDown,
// ErrTimeout, ErrNoRoute, ErrQueueFull.
//
// The reply's buffer is released before returning; use Exec.RequestContext
// directly to keep zero-copy access to the reply.
func (n *Node) CallContext(ctx context.Context, target TID, xfunc uint16, payload []byte) ([]byte, error) {
	m, err := n.message(target, xfunc, payload)
	if err != nil {
		return nil, err
	}
	rep, err := n.Exec.RequestContext(ctx, m)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), rep.Payload...)
	rep.Recycle()
	return out, nil
}

// message builds a private frame with a pool-backed payload.
func (n *Node) message(target TID, xfunc uint16, payload []byte) (*Message, error) {
	m, err := n.Exec.AllocMessage(len(payload))
	if err != nil {
		return nil, err
	}
	copy(m.Payload, payload)
	m.Target = target
	m.Initiator = TIDExecutive
	m.XFunction = xfunc
	return m, nil
}
