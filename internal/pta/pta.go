// Package pta implements the Peer Transport Agent: the module that owns
// all Peer Transports and moves frames between the executive and remote
// IOPs (figure 4 of the paper).
//
// Peer Transports "encapsulate all details about a specific transport
// layer" and are themselves ordinary device modules: registering one plugs
// a device into the executive, so every PT has a TiD and answers the
// standard executive and utility messages.  The agent distinguishes the
// paper's two modes of operation (§4):
//
//   - Polling: the agent's polling goroutine periodically scans all
//     registered polling-mode PTs for pending data.  Efficient for
//     lightweight user-level network interfaces — but one slow PT in the
//     polling set degrades all of them, which BenchmarkPollingVsTask
//     reproduces.
//   - Task: the PT has its own thread of control and reports to the
//     executive whenever data have arrived.
//
// Multiple transports can be registered and used in parallel; each device
// route names the PT that carries it.
package pta

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/queue"
	"xdaq/internal/transport/faults"
)

// Mode selects how received frames reach the executive.
type Mode int

const (
	// Task mode: the transport delivers from its own goroutine.
	Task Mode = iota

	// Polling mode: the agent's scan loop asks the transport for pending
	// frames.
	Polling
)

func (m Mode) String() string {
	if m == Polling {
		return "polling"
	}
	return "task"
}

// Deliver hands a received frame (with the sending IOP's identity) to the
// local messaging instance.  Ownership of the frame passes to the callee.
type Deliver func(src i2o.NodeID, m *i2o.Message) error

// Tunable is an optional PeerTransport extension: transports with runtime
// knobs (the TCP eager/rendezvous threshold, say) implement it, and
// integer parameter writes on the transport's device are forwarded to
// SetTunable — the remote-actuation path the control-plane autopilot
// uses.  Unknown keys return an error, which the agent logs and drops (a
// reconfiguration frame must not wedge the route).
type Tunable interface {
	SetTunable(key string, value int64) error
}

// PeerTransport is the contract every transport implements.
type PeerTransport interface {
	// Name is the route identifier, e.g. "pt.gm" or "pt.tcp".
	Name() string

	// Send transmits a frame to the given IOP.  Ownership of the frame
	// passes to the transport: it releases any attached buffer once the
	// frame is on the wire (or delivered, for pointer-passing transports).
	Send(dst i2o.NodeID, m *i2o.Message) error

	// Start switches the transport into task mode, delivering through fn
	// until Stop.  Transports that cannot run a task loop return an error.
	Start(fn Deliver) error

	// Poll delivers at most budget pending frames through fn and reports
	// how many it delivered.  Transports that cannot poll return 0.
	Poll(fn Deliver, budget int) int

	// Stop terminates delivery and releases transport resources.
	Stop() error
}

// Errors.
var (
	// ErrUnknownRoute reports a forward over an unregistered route.
	ErrUnknownRoute = errors.New("pta: unknown route")

	// ErrSuspended reports a forward over a suspended transport.
	ErrSuspended = errors.New("pta: transport suspended")

	// ErrDuplicate reports a second registration of a route name.
	ErrDuplicate = errors.New("pta: route already registered")

	// ErrTransient marks transport errors worth retrying: the fabric
	// hiccuped but the route is believed alive (a refused write on a live
	// connection, a failed dial to a restarting peer).  Transports wrap
	// such errors; everything else fails the forward on the first attempt.
	ErrTransient = errors.New("pta: transient transport error")
)

// RetryPolicy bounds re-sends of frames whose transport send failed with a
// transient error.  The zero value (and any Attempts <= 1) disables
// retrying, preserving fail-fast forwarding.
type RetryPolicy struct {
	// Attempts is the total number of sends, including the first.
	Attempts int

	// Backoff is the sleep before the first retry; it doubles per attempt.
	// Zero defaults to 1ms.
	Backoff time.Duration

	// MaxBackoff caps the doubling; 0 leaves it uncapped.
	MaxBackoff time.Duration
}

type slot struct {
	pt        PeerTransport
	mode      Mode
	dev       *device.Device
	suspended atomic.Bool

	// deliver is the route's delivery callback, built once at Register
	// time: the poll scan and task starts share it instead of closing over
	// the route per call (the scan runs per frame batch, so a per-call
	// closure was measurable garbage).
	deliver Deliver

	// Per-route traffic counters (pta.<route>.sent etc.), created at
	// Register time from the executive's registry.
	cSent      *metrics.Counter
	cRecv      *metrics.Counter
	cSentBytes *metrics.Counter
	cRecvBytes *metrics.Counter
}

// Agent is the Peer Transport Agent for one executive.
type Agent struct {
	exec *executive.Executive
	dev  *device.Device

	mu    sync.RWMutex
	slots map[string]*slot

	pollStop chan struct{}
	pollDone chan struct{}
	pollWake chan struct{}
	closed   atomic.Bool

	retry atomic.Pointer[RetryPolicy]

	// qos is the admission-control table (nil: admission off); qosNow
	// overrides the token-refill clock in tests.
	qos    atomic.Pointer[qosTable]
	qosNow func() time.Time

	nSent     *metrics.Counter
	nReceived *metrics.Counter
	nErrors   *metrics.Counter
	nRetries  *metrics.Counter
	pollScan  *metrics.Histogram
}

// New creates the agent, plugs its device module into the executive and
// installs it as the executive's router.
func New(e *executive.Executive) (*Agent, error) {
	reg := e.Metrics()
	a := &Agent{
		exec:     e,
		slots:    make(map[string]*slot),
		pollStop: make(chan struct{}),
		pollDone: make(chan struct{}),
		pollWake: make(chan struct{}, 1),

		nSent:     reg.Counter("pta.sent"),
		nReceived: reg.Counter("pta.recv"),
		nErrors:   reg.Counter("pta.errors"),
		nRetries:  reg.Counter("pta.retries"),
		pollScan:  reg.Histogram("pta.pollScan"),
	}
	a.dev = device.New("pta", 0)
	a.dev.Params().OnSet(a.applyQoSParams)
	if _, err := e.Plug(a.dev); err != nil {
		return nil, fmt.Errorf("pta: plug agent device: %w", err)
	}
	e.SetRouter(a)
	go a.pollLoop()
	return a, nil
}

// Register adds a transport under its route name and plugs its device
// module.  Task-mode transports are started immediately.
func (a *Agent) Register(pt PeerTransport, mode Mode) error {
	reg := a.exec.Metrics()
	s := &slot{
		pt:   pt,
		mode: mode,

		cSent:      reg.Counter("pta." + pt.Name() + ".sent"),
		cRecv:      reg.Counter("pta." + pt.Name() + ".recv"),
		cSentBytes: reg.Counter("pta." + pt.Name() + ".sentBytes"),
		cRecvBytes: reg.Counter("pta." + pt.Name() + ".recvBytes"),
	}
	s.dev = device.New(pt.Name(), 0)
	route := pt.Name()
	s.deliver = func(src i2o.NodeID, m *i2o.Message) error {
		a.nReceived.Inc()
		s.cRecv.Inc()
		s.cRecvBytes.Add(uint64(m.WireSize()))
		return a.exec.InjectFrom(src, route, m)
	}
	s.dev.Params().Set("mode", mode.String())
	// Setting "suspended" pauses the transport: forwards fail with
	// ErrSuspended and the scan loop skips it — the paper's advice for
	// protecting a low-latency PT from a slow one.
	s.dev.Params().Set("suspended", false)
	s.dev.Params().OnSet(func(changed []i2o.Param) {
		for _, p := range changed {
			if p.Key == "suspended" {
				if b, ok := p.Value.(bool); ok {
					s.suspended.Store(b)
					if !b && mode == Polling {
						a.wakePoll()
					}
				}
				continue
			}
			if tn, ok := pt.(Tunable); ok {
				if v, isInt := p.Value.(int64); isInt {
					if err := tn.SetTunable(p.Key, v); err != nil {
						a.exec.Logf("pta: %s: %v", pt.Name(), err)
					}
				}
			}
		}
	})

	a.mu.Lock()
	if _, dup := a.slots[pt.Name()]; dup {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, pt.Name())
	}
	a.slots[pt.Name()] = s
	a.mu.Unlock()

	if _, err := a.exec.Plug(s.dev); err != nil {
		a.mu.Lock()
		delete(a.slots, pt.Name())
		a.mu.Unlock()
		return fmt.Errorf("pta: plug %s: %w", pt.Name(), err)
	}
	if mode == Task {
		if err := pt.Start(s.deliver); err != nil {
			a.mu.Lock()
			delete(a.slots, pt.Name())
			a.mu.Unlock()
			return fmt.Errorf("pta: start %s: %w", pt.Name(), err)
		}
	} else {
		a.wakePoll()
	}
	return nil
}

// SetRetryPolicy installs the forward retry policy for all routes.
func (a *Agent) SetRetryPolicy(p RetryPolicy) {
	a.retry.Store(&p)
}

// RetryPolicy returns the installed policy (zero value when none is set).
func (a *Agent) RetryPolicy() RetryPolicy {
	if p := a.retry.Load(); p != nil {
		return *p
	}
	return RetryPolicy{}
}

// retryable reports whether a failed send may be re-attempted: errors the
// transport marked transient, injector refusals (which model them), and
// send-ring backpressure (queue.ErrFull — GM send-token exhaustion, the
// TCP transport's full per-peer ring, and its exhausted per-peer credit
// window, tcp.ErrNoCredit, which wraps both sentinels): the ring drains as
// soon as the writer's next vectored write completes, and credits flow
// back as soon as the receiver recycles delivered frames, so backing off
// and re-attempting is exactly right.
func retryable(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, faults.ErrInjected) ||
		errors.Is(err, queue.ErrFull)
}

// Forward implements executive.Router.
func (a *Agent) Forward(route string, dst i2o.NodeID, m *i2o.Message) error {
	a.mu.RLock()
	s := a.slots[route]
	a.mu.RUnlock()
	if s == nil {
		m.Release()
		a.nErrors.Inc()
		return fmt.Errorf("%w: %s", ErrUnknownRoute, route)
	}
	if s.suspended.Load() {
		m.Release()
		a.nErrors.Inc()
		return fmt.Errorf("%w: %s", ErrSuspended, route)
	}
	// Size the frame before Send: ownership passes to the transport.
	wire := uint64(m.WireSize())

	pol := a.RetryPolicy()
	attempts := pol.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := pol.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	// Transports release the frame's pool buffer on failure as well as
	// success, so a retried attempt must hold its own reference and
	// re-attach it to the frame before resending.  A segment list must be
	// re-attached as a list: AttachBuffer would fill the buffer slot but
	// leave the list slot empty, and the frame would be resent bodiless.
	buf := m.Buffer()
	list := m.List()
	for attempt := 1; ; attempt++ {
		// QoS admission is charged per attempt, before the transport sees
		// the frame.  A queue-class refusal Is ErrTransient, so it rides
		// the same backoff as a transient send failure — that is the
		// "queue" in reject-or-queue; a reject-class refusal fails here
		// on the first attempt.
		if err := a.qosAdmit(m.Priority); err != nil {
			if attempt >= attempts || !retryable(err) {
				m.Release()
				a.nErrors.Inc()
				return err
			}
			a.nRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
			if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
			continue
		}
		guarded := attempts > 1 && buf != nil
		if guarded {
			buf.Retain()
		}
		err := s.pt.Send(dst, m)
		if err == nil {
			if guarded {
				buf.Release()
			}
			a.nSent.Inc()
			s.cSent.Inc()
			s.cSentBytes.Add(wire)
			return nil
		}
		if attempt >= attempts || !retryable(err) {
			if guarded {
				buf.Release()
			}
			a.nErrors.Inc()
			return err
		}
		a.nRetries.Inc()
		time.Sleep(backoff)
		backoff *= 2
		if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
		if list != nil {
			// Our retained reference becomes the frame's hold again.
			m.AttachList(list)
		} else if buf != nil {
			m.AttachBuffer(buf)
		}
	}
}

// Routes returns the registered route names.
func (a *Agent) Routes() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.slots))
	for name := range a.slots {
		out = append(out, name)
	}
	return out
}

// pollBudget bounds the frames drained from one transport per scan so one
// busy PT cannot starve the others within a scan round.
const pollBudget = 64

// wakePoll nudges the scan goroutine out of its empty-set park.  Called
// when a polling transport appears or is resumed; a buffered no-op send
// keeps it cheap when the loop is already running.
func (a *Agent) wakePoll() {
	select {
	case a.pollWake <- struct{}{}:
	default:
	}
}

// pollLoop is the agent's scan goroutine for polling-mode transports.
func (a *Agent) pollLoop() {
	defer close(a.pollDone)
	var slots []*slot // reused scan scratch; the loop is its only owner
	for {
		select {
		case <-a.pollStop:
			return
		default:
		}
		slots = slots[:0]
		a.mu.RLock()
		for _, s := range a.slots {
			if s.mode == Polling && !s.suspended.Load() {
				slots = append(slots, s)
			}
		}
		a.mu.RUnlock()
		if len(slots) == 0 {
			// Nothing to scan — park until a polling transport is
			// registered or resumed.  Without this, agents whose
			// transports are all task-mode would burn a core spinning.
			select {
			case <-a.pollStop:
				return
			case <-a.pollWake:
			}
			continue
		}
		var start time.Time
		if metrics.Enabled() {
			start = time.Now()
		}
		delivered := 0
		for _, s := range slots {
			delivered += s.pt.Poll(s.deliver, pollBudget)
		}
		if delivered > 0 {
			// Only productive rounds are observed; empty spins would swamp
			// the histogram with scheduler noise.
			if !start.IsZero() {
				a.pollScan.Since(start)
			}
		} else {
			// Nothing pending anywhere: yield rather than burn the core.
			runtime.Gosched()
		}
	}
}

// Close stops the polling loop and all transports.
func (a *Agent) Close() {
	if a.closed.Swap(true) {
		return
	}
	close(a.pollStop)
	<-a.pollDone
	a.mu.Lock()
	slots := make([]*slot, 0, len(a.slots))
	for _, s := range a.slots {
		slots = append(slots, s)
	}
	a.mu.Unlock()
	for _, s := range slots {
		if err := s.pt.Stop(); err != nil {
			a.exec.Logf("pta: stop %s: %v", s.pt.Name(), err)
		}
	}
}
