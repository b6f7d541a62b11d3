// Package device implements I2O device classes: the unit of software
// composition in XDAQ.
//
// In the paper's model (§3.3) an application is merely a new, private
// device class.  A device implements (i) the executive interface, (ii) the
// utility interface and (iii) its own class interface — private messages
// bound to handler functions.  Package device provides the first two with
// sensible defaults ("the system can provide default procedures if for a
// given event no code is supplied") and a binding table for the third, so
// application code is exactly the set of private handlers plus optional
// lifecycle callbacks — the Go analogue of inheriting from i2oListener.
package device

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
)

// State is a device's operational state.
type State int32

const (
	// Ready: plugged and configured but not yet enabled; private frames
	// are rejected, executive and utility frames are served.
	Ready State = iota

	// Operational: fully dispatching.
	Operational

	// Quiesced: temporarily stopped by ExecSysQuiesce; like Ready but
	// reached from Operational.
	Quiesced

	// Faulted: taken out of service by the executive after a handler
	// panic or watchdog termination.
	Faulted
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Operational:
		return "operational"
	case Quiesced:
		return "quiesced"
	case Faulted:
		return "faulted"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Host is the executive-side interface devices program against: the frame
// services of §4 (frameSend, frameReply, the buffer pool) plus address
// resolution.  It is implemented by *executive.Executive; tests use fakes.
type Host interface {
	// Node returns this IOP's identity.
	Node() i2o.NodeID

	// Alloc takes a frame payload buffer from the executive's pool
	// (frameAlloc).
	Alloc(n int) (*pool.Buffer, error)

	// Send routes a message to its target, local or remote (frameSend).
	// Ownership of an attached payload buffer passes to the executive.
	Send(m *i2o.Message) error

	// Request sends a message with FlagReplyExpected and blocks for the
	// correlated reply or an error.
	Request(m *i2o.Message) (*i2o.Message, error)

	// Resolve returns the local TiD for a (class, instance) pair on the
	// given node, creating a proxy entry when the device is remote and
	// already known to the address table.
	Resolve(class string, instance int, node i2o.NodeID) (i2o.TID, error)

	// Logf emits a diagnostic line tagged with the executive's name.
	Logf(format string, args ...any)
}

// Context carries the executive binding of a plugged device into its
// handlers and lifecycle callbacks.
type Context struct {
	Host Host
	Self *Device
}

// Handler processes one frame addressed to the device.  Returning an error
// makes the executive send a failure reply to the initiator (when one is
// expected); returning nil means the handler took care of any reply itself.
type Handler func(ctx *Context, m *i2o.Message) error

// Errors.
var (
	// ErrNoHandler reports a frame with no bound handler and no default.
	ErrNoHandler = errors.New("device: no handler bound")

	// ErrNotPlugged reports use of executive services before Plug.
	ErrNotPlugged = errors.New("device: not plugged into an executive")
)

// Listener is the contract a device module presents to an executive — the
// Go analogue of the paper's i2oListener class.  *Device implements it;
// the interface exists so that code composing modules (registries,
// controllers, tests) can treat them uniformly without reaching for the
// concrete type.
type Listener interface {
	// Class and Instance name the module in the address table.
	Class() string
	Instance() int

	// Plugged binds the module to an executive after TiD assignment;
	// Unplugged runs after removal.
	Plugged(host Host, id i2o.TID) error
	Unplugged()

	// Lookup selects the handler for a frame; Accepts gates delivery by
	// device state.
	Lookup(m *i2o.Message) (Handler, *Context, error)
	Accepts(m *i2o.Message) bool
}

var _ Listener = (*Device)(nil)

// Device is one device-class instance.  Create it with New, bind private
// handlers, then plug it into an executive.
type Device struct {
	class    string
	instance int

	tid   atomic.Uint32 // i2o.TID once plugged
	state atomic.Int32

	mu       sync.RWMutex
	private  map[uint16]Handler
	standard map[i2o.Function]Handler
	ctx      *Context

	params *Params

	subMu       sync.RWMutex
	subscribers map[i2o.TID]bool

	// OnPlugged, if set, runs after the executive assigned a TiD; the
	// paper's plugin callback where a module retrieves parameters and
	// triggers proxy creation.  OnUnplugged runs after removal.
	OnPlugged   func(ctx *Context) error
	OnUnplugged func()
}

// New creates a device of the given class and instance number, using the
// framework organization ID for its private messages.
func New(class string, instance int) *Device {
	d := &Device{
		class:    class,
		instance: instance,
		private:  make(map[uint16]Handler),
		standard: make(map[i2o.Function]Handler),
		params:   NewParams(),
	}
	d.state.Store(int32(Ready))
	return d
}

// Class returns the device class name.
func (d *Device) Class() string { return d.class }

// Instance returns the instance number within the class.
func (d *Device) Instance() int { return d.instance }

// TID returns the device's assigned target identifier, or i2o.TIDNone
// before the device is plugged.
func (d *Device) TID() i2o.TID { return i2o.TID(d.tid.Load()) }

// State returns the operational state.
func (d *Device) State() State { return State(d.state.Load()) }

// SetState transitions the device; the executive drives this from
// ExecSysEnable/ExecSysQuiesce frames and fault handling.
func (d *Device) SetState(s State) { d.state.Store(int32(s)) }

// Params returns the device's parameter store, served through
// UtilParamsGet/UtilParamsSet.
func (d *Device) Params() *Params { return d.params }

// Bind associates a private function code with a handler.  Binding is the
// paper's "local dispatcher" (§3.2): adding an event requires nothing but
// adding it to the device module.
func (d *Device) Bind(xfunc uint16, h Handler) {
	d.mu.Lock()
	d.private[xfunc] = h
	d.mu.Unlock()
}

// BindFunction overrides the handling of a standard (non-private) function
// code, replacing the built-in default.
func (d *Device) BindFunction(fn i2o.Function, h Handler) {
	d.mu.Lock()
	d.standard[fn] = h
	d.mu.Unlock()
}

// Plugged is invoked by the executive after TiD assignment.  It publishes
// the standard parameters and runs the OnPlugged callback.
func (d *Device) Plugged(host Host, id i2o.TID) error {
	d.tid.Store(uint32(id))
	ctx := &Context{Host: host, Self: d}
	d.mu.Lock()
	d.ctx = ctx
	d.mu.Unlock()
	d.params.Set("class", d.class)
	d.params.Set("instance", int64(d.instance))
	d.params.Set("tid", int64(id))
	if d.OnPlugged != nil {
		return d.OnPlugged(ctx)
	}
	return nil
}

// Unplugged is invoked by the executive after removal.
func (d *Device) Unplugged() {
	d.tid.Store(uint32(i2o.TIDNone))
	d.mu.Lock()
	d.ctx = nil
	d.mu.Unlock()
	if d.OnUnplugged != nil {
		d.OnUnplugged()
	}
}

// Ctx returns the executive binding, or ErrNotPlugged.
func (d *Device) Ctx() (*Context, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.ctx == nil {
		return nil, ErrNotPlugged
	}
	return d.ctx, nil
}

// lookup selects the handler for m without running it.
func (d *Device) lookup(m *i2o.Message) (Handler, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if m.Function.IsPrivate() {
		if m.Org == i2o.OrgXDAQ {
			if h, ok := d.private[m.XFunction]; ok {
				return h, nil
			}
		}
		return nil, fmt.Errorf("%w: %s private %#04x (org %#04x)", ErrNoHandler, d.class, m.XFunction, uint16(m.Org))
	}
	if h, ok := d.standard[m.Function]; ok {
		return h, nil
	}
	if h := d.defaultStandard(m.Function); h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("%w: %s function %v", ErrNoHandler, d.class, m.Function)
}

// Lookup exposes handler selection to the executive so that it can time
// demultiplexing and upcall separately (the whitebox probes of Table 1).
func (d *Device) Lookup(m *i2o.Message) (Handler, *Context, error) {
	ctx, err := d.Ctx()
	if err != nil {
		return nil, nil, err
	}
	h, err := d.lookup(m)
	return h, ctx, err
}

// Accepts reports whether the device should be handed a frame in its
// current state: executive and utility frames are always served so the
// device stays configurable; private frames require Operational.
func (d *Device) Accepts(m *i2o.Message) bool {
	if !m.Function.IsPrivate() {
		return d.State() != Faulted || m.Function.IsExecutive()
	}
	return d.State() == Operational
}

func (d *Device) String() string {
	return fmt.Sprintf("%s[%d]/%v(%v)", d.class, d.instance, d.TID(), d.State())
}
