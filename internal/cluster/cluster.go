// Package cluster implements the host side of the paper's operational
// model (§3.5): "In a distributed I2O environment in which IOPs do not
// reside on the same bus segment, a primary host controls all processing
// nodes.  Secondary hosts may register and subsequently apply for control
// rights."
//
// A Controller runs on a host's own executive (hosts are IOPs too) and
// drives the processing nodes entirely through I2O executive messages:
// status, parameter get/set, module plug/unplug, enable/quiesce, system
// table installation.  The primary controller owns the control-rights
// token; secondary controllers register with it and must acquire the
// rights before issuing mutating commands.  Package tclish scripts bind to
// a controller through Bind, giving the Tcl-style configuration channel
// the paper describes.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
)

// HostClass is the device class name of the controller's device module.
const HostClass = "host"

// Private function codes of the host device class.
const (
	// XFuncRegister announces a secondary host to the primary.
	XFuncRegister uint16 = 1

	// XFuncRequestControl asks the primary for the control rights.
	XFuncRequestControl uint16 = 2

	// XFuncReleaseControl returns the control rights.
	XFuncReleaseControl uint16 = 3
)

// Role distinguishes the primary host from secondaries.
type Role int

const (
	// Primary owns the cluster and the control-rights token.
	Primary Role = iota

	// Secondary must register with the primary and acquire control
	// rights before mutating the cluster.
	Secondary
)

// Errors.
var (
	// ErrNoControl reports a mutating command without control rights.
	ErrNoControl = errors.New("cluster: control rights not held")

	// ErrControlBusy reports a control request while another host holds
	// the rights.
	ErrControlBusy = errors.New("cluster: control rights held elsewhere")

	// ErrUnknownNode reports a command for an unregistered node.
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// Controller drives a set of processing nodes.
type Controller struct {
	exec *executive.Executive
	dev  *device.Device
	role Role

	mu    sync.Mutex
	nodes map[i2o.NodeID]string // node -> name

	// Primary: the current rights holder (TIDNone when free; the
	// primary's own commands always pass).  Holders are identified by the
	// local (return-proxy) TiD their requests arrive from.
	holder i2o.TID

	// Secondary: proxy TiD of the primary's host device, and whether we
	// currently hold the rights.
	primary  i2o.TID
	haveCtrl bool
}

// NewPrimary creates the primary controller on the given (host) executive.
func NewPrimary(exec *executive.Executive) (*Controller, error) {
	c := &Controller{
		exec:  exec,
		role:  Primary,
		nodes: make(map[i2o.NodeID]string),
	}
	c.dev = device.New(HostClass, 0)
	c.dev.Bind(XFuncRegister, c.handleRegister)
	c.dev.Bind(XFuncRequestControl, c.handleRequestControl)
	c.dev.Bind(XFuncReleaseControl, c.handleReleaseControl)
	if _, err := exec.Plug(c.dev); err != nil {
		return nil, err
	}
	return c, nil
}

// NewSecondary creates a secondary controller and registers it with the
// primary host on primaryNode (a route to that node must exist).
func NewSecondary(exec *executive.Executive, primaryNode i2o.NodeID) (*Controller, error) {
	c := &Controller{
		exec:  exec,
		role:  Secondary,
		nodes: make(map[i2o.NodeID]string),
	}
	c.dev = device.New(HostClass, int(exec.Node()))
	if _, err := exec.Plug(c.dev); err != nil {
		return nil, err
	}
	primary, err := exec.Discover(primaryNode, HostClass, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: discover primary host: %w", err)
	}
	c.primary = primary
	rep, err := exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: primary, Initiator: c.dev.TID(),
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: XFuncRegister,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: register with primary: %w", err)
	}
	rep.Release()
	return c, nil
}

// handleRegister records a secondary host.
func (c *Controller) handleRegister(ctx *device.Context, m *i2o.Message) error {
	ctx.Host.Logf("cluster: secondary host registered via %v", m.Initiator)
	return device.ReplyIfExpected(ctx, m, nil)
}

func (c *Controller) handleRequestControl(ctx *device.Context, m *i2o.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holder != i2o.TIDNone && c.holder != m.Initiator {
		return ErrControlBusy
	}
	c.holder = m.Initiator
	return device.ReplyIfExpected(ctx, m, nil)
}

func (c *Controller) handleReleaseControl(ctx *device.Context, m *i2o.Message) error {
	c.mu.Lock()
	if c.holder == m.Initiator {
		c.holder = i2o.TIDNone
	}
	c.mu.Unlock()
	return device.ReplyIfExpected(ctx, m, nil)
}

// RequestControl acquires the control rights from the primary (no-op for
// the primary itself).
func (c *Controller) RequestControl() error {
	if c.role == Primary {
		return nil
	}
	rep, err := c.exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: c.primary, Initiator: c.dev.TID(),
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: XFuncRequestControl,
	})
	if err != nil {
		return err
	}
	rep.Release()
	c.mu.Lock()
	c.haveCtrl = true
	c.mu.Unlock()
	return nil
}

// ReleaseControl returns the control rights.
func (c *Controller) ReleaseControl() error {
	if c.role == Primary {
		return nil
	}
	rep, err := c.exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: c.primary, Initiator: c.dev.TID(),
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: XFuncReleaseControl,
	})
	if err != nil {
		return err
	}
	rep.Release()
	c.mu.Lock()
	c.haveCtrl = false
	c.mu.Unlock()
	return nil
}

// HoldsControl reports whether mutating commands may be issued.
func (c *Controller) HoldsControl() bool {
	if c.role == Primary {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.haveCtrl
}

func (c *Controller) ensureControl() error {
	if !c.HoldsControl() {
		return ErrNoControl
	}
	return nil
}

// AddNode registers a processing node under a human-readable name.  A
// route to the node must already be configured on the controller's
// executive.
func (c *Controller) AddNode(node i2o.NodeID, name string) error {
	if _, ok := c.exec.Route(node); !ok {
		return fmt.Errorf("%w: no route to %v", ErrUnknownNode, node)
	}
	c.mu.Lock()
	c.nodes[node] = name
	c.mu.Unlock()
	return nil
}

// Nodes returns the registered node ids, sorted.
func (c *Controller) Nodes() []i2o.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]i2o.NodeID, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// execRequest sends one executive message to a node and returns the reply.
func (c *Controller) execRequest(node i2o.NodeID, fn i2o.Function, payload []byte) (*i2o.Message, error) {
	c.mu.Lock()
	_, known := c.nodes[node]
	c.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, node)
	}
	target, err := c.exec.ExecProxy(node)
	if err != nil {
		return nil, err
	}
	return c.exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: target, Initiator: c.dev.TID(),
		Function: fn, Payload: payload,
	})
}

// Status reads a node's executive status block.
func (c *Controller) Status(node i2o.NodeID) ([]i2o.Param, error) {
	rep, err := c.execRequest(node, i2o.ExecStatusGet, nil)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// Resources reads a node's hardware resource table.
func (c *Controller) Resources(node i2o.NodeID) ([]i2o.Param, error) {
	rep, err := c.execRequest(node, i2o.ExecHrtGet, nil)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// Plug instantiates a registered module on a node and returns its TiD.
func (c *Controller) Plug(node i2o.NodeID, module string, instance int, extra []i2o.Param) (i2o.TID, error) {
	if err := c.ensureControl(); err != nil {
		return i2o.TIDNone, err
	}
	params := append([]i2o.Param{
		{Key: "module", Value: module},
		{Key: "instance", Value: int64(instance)},
	}, extra...)
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return i2o.TIDNone, err
	}
	rep, err := c.execRequest(node, i2o.ExecPlugin, payload)
	if err != nil {
		return i2o.TIDNone, err
	}
	defer rep.Release()
	out, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		return i2o.TIDNone, err
	}
	for _, p := range out {
		if p.Key == "tid" {
			if n, ok := p.Value.(int64); ok {
				return i2o.TID(n), nil
			}
		}
	}
	return i2o.TIDNone, fmt.Errorf("cluster: plug reply without tid")
}

// Unplug removes a device module from a node.
func (c *Controller) Unplug(node i2o.NodeID, id i2o.TID) error {
	if err := c.ensureControl(); err != nil {
		return err
	}
	payload, err := i2o.EncodeParams([]i2o.Param{{Key: "tid", Value: int64(id)}})
	if err != nil {
		return err
	}
	rep, err := c.execRequest(node, i2o.ExecUnplug, payload)
	if err != nil {
		return err
	}
	rep.Release()
	return nil
}

// setState sends an IOP-level state transition to one node.
func (c *Controller) setState(node i2o.NodeID, fn i2o.Function) error {
	if err := c.ensureControl(); err != nil {
		return err
	}
	rep, err := c.execRequest(node, fn, nil)
	if err != nil {
		return err
	}
	rep.Release()
	return nil
}

// Enable moves a node to OPERATIONAL.
func (c *Controller) Enable(node i2o.NodeID) error { return c.setState(node, i2o.ExecSysEnable) }

// Quiesce moves a node to READY.
func (c *Controller) Quiesce(node i2o.NodeID) error { return c.setState(node, i2o.ExecSysQuiesce) }

// Clear resets a node's statistics.
func (c *Controller) Clear(node i2o.NodeID) error { return c.setState(node, i2o.ExecSysClear) }

// SetSystemTable installs routes on a node: peer node id -> transport
// route name, so processing nodes can talk to each other directly.
func (c *Controller) SetSystemTable(node i2o.NodeID, routes map[i2o.NodeID]string) error {
	if err := c.ensureControl(); err != nil {
		return err
	}
	params := make([]i2o.Param, 0, len(routes))
	for n, route := range routes {
		params = append(params, i2o.Param{Key: fmt.Sprintf("%d", n), Value: route})
	}
	i2o.SortParams(params)
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return err
	}
	rep, err := c.execRequest(node, i2o.ExecSysTabSet, payload)
	if err != nil {
		return err
	}
	rep.Release()
	return nil
}

// deviceRequest sends a utility message to a device on a node, resolving
// (class, instance) through the remote HRT.
func (c *Controller) deviceRequest(node i2o.NodeID, class string, instance int, fn i2o.Function, payload []byte) (*i2o.Message, error) {
	c.mu.Lock()
	_, known := c.nodes[node]
	c.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, node)
	}
	target, err := c.exec.Discover(node, class, instance)
	if err != nil {
		return nil, err
	}
	return c.exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: target, Initiator: c.dev.TID(),
		Function: fn, Payload: payload,
	})
}

// trace sends one ExecTraceGet with the given control parameters (nil for
// a pure read) and returns the ring dump.  The handler only applies keys
// present in the request, so a read never toggles recording.
func (c *Controller) trace(node i2o.NodeID, controls []i2o.Param) (string, error) {
	var payload []byte
	if len(controls) > 0 {
		var err error
		payload, err = i2o.EncodeParams(controls)
		if err != nil {
			return "", err
		}
	}
	rep, err := c.execRequest(node, i2o.ExecTraceGet, payload)
	if err != nil {
		return "", err
	}
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		return "", err
	}
	for _, p := range params {
		if p.Key == "dump" {
			if s, ok := p.Value.(string); ok {
				return s, nil
			}
		}
	}
	return "", fmt.Errorf("cluster: trace reply without dump")
}

// SetNodeTrace switches a node's frame tracer on or off.
func (c *Controller) SetNodeTrace(node i2o.NodeID, on bool) error {
	_, err := c.trace(node, []i2o.Param{{Key: "enable", Value: on}})
	return err
}

// ResetNodeTrace clears a node's trace ring.
func (c *Controller) ResetNodeTrace(node i2o.NodeID) error {
	_, err := c.trace(node, []i2o.Param{{Key: "reset", Value: true}})
	return err
}

// TraceDump reads a node's trace ring without changing its state.
func (c *Controller) TraceDump(node i2o.NodeID) (string, error) {
	return c.trace(node, nil)
}

// Metrics scrapes a node's metrics registry over ordinary I2O frames.
// An empty prefix returns everything; otherwise only metrics whose name
// starts with prefix.  The reply is the flattened form (counters and
// gauges as scalars, histograms expanded to .count/.sum.ns/.p50.ns/
// .p99.ns rows), identical to what a local metrics.Flatten would see.
func (c *Controller) Metrics(node i2o.NodeID, prefix string) ([]i2o.Param, error) {
	var payload []byte
	if prefix != "" {
		var err error
		payload, err = i2o.EncodeParams([]i2o.Param{{Key: "prefix", Value: prefix}})
		if err != nil {
			return nil, err
		}
	}
	rep, err := c.execRequest(node, i2o.ExecMetricsGet, payload)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// Health queries a node's peer health monitor over ordinary I2O frames.
// Nodes without a running monitor answer a single monitor=off row; nodes
// with one report per-peer state, consecutive failures, current route and
// failover status (see the health package).
func (c *Controller) Health(node i2o.NodeID) ([]i2o.Param, error) {
	rep, err := c.execRequest(node, i2o.ExecHealthGet, nil)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// Policy queries a node's control-plane autopilot: policy identity,
// tick progress and the decision log, or a single "autopilot=off" row
// when the node runs without one.
func (c *Controller) Policy(node i2o.NodeID) ([]i2o.Param, error) {
	rep, err := c.execRequest(node, i2o.ExecPolicyGet, nil)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// GetParams reads parameters of a device on a node (all when keys empty).
func (c *Controller) GetParams(node i2o.NodeID, class string, instance int, keys []string) ([]i2o.Param, error) {
	payload, err := i2o.EncodeKeys(keys)
	if err != nil {
		return nil, err
	}
	rep, err := c.deviceRequest(node, class, instance, i2o.UtilParamsGet, payload)
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	return i2o.DecodeParams(rep.Payload)
}

// SetParams writes parameters of a device on a node.
func (c *Controller) SetParams(node i2o.NodeID, class string, instance int, params []i2o.Param) error {
	if err := c.ensureControl(); err != nil {
		return err
	}
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return err
	}
	rep, err := c.deviceRequest(node, class, instance, i2o.UtilParamsSet, payload)
	if err != nil {
		return err
	}
	rep.Release()
	return nil
}
