// Package executive implements the XDAQ I2O executive: the per-node
// runtime that owns the address table, the buffer pool and the inbound
// frame scheduler, and dispatches every message to the device modules
// registered with it (§4 of the paper).
//
// The executive is deliberately lean — "after all, the executive is very
// lean as it acts only as a delegate": by default one dispatch goroutine
// pops frames from the seven-priority scheduler and upcalls the target
// device's handler, exactly the paper's loop of control.  Options.
// Dispatchers > 1 opts into the parallel engine: N workers drain the same
// scheduler under per-device exclusive checkout, keeping the I2O
// discipline (strict priority, per-device FIFO, one in-flight frame per
// device) while spreading distinct devices across cores.  There is no
// thread per active object; peer transports in task mode have their own
// goroutines but only post frames to the inbound queue.  The executive is itself an I2O device: it claims TiD 1, answers
// the executive function codes (status, resource table, plug/unplug,
// enable/quiesce, timers, system table) and is configured through the very
// message format it dispatches.
package executive

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/probe"
	"xdaq/internal/queue"
	"xdaq/internal/tid"
	"xdaq/internal/trace"
)

// Router forwards frames addressed to proxy entries toward remote IOPs.
// It is implemented by the peer transport agent; the indirection keeps the
// executive free of transport knowledge, exactly as peer transports are
// "ordinary device classes" to it.
type Router interface {
	Forward(route string, dst i2o.NodeID, m *i2o.Message) error
}

// Options configures an executive.
type Options struct {
	// Name tags log lines and status reports; defaults to "xdaq".
	Name string

	// Node is this IOP's identity in the distributed system.
	Node i2o.NodeID

	// Allocator is the frame buffer pool; defaults to the optimized
	// table-based scheme.  Pass a pool.Fixed to reproduce the paper's
	// original allocator.
	Allocator pool.Allocator

	// QueueCapacity bounds the inbound scheduler; 0 means unbounded.
	QueueCapacity int

	// RequestTimeout bounds synchronous Request calls; defaults to 5s.
	RequestTimeout time.Duration

	// Watchdog, when positive, bounds handler execution time.  A handler
	// exceeding it is abandoned, its device is faulted, and the initiator
	// receives a FailAborted reply (§4: a misbehaving handler would
	// otherwise stall the round-robin loop).  Zero runs handlers inline on
	// the dispatch goroutine — the efficient configuration measured in the
	// paper.
	Watchdog time.Duration

	// Dispatchers is the number of parallel dispatch workers; 0 or 1 runs
	// the paper's single loop of control with byte-identical scheduling.
	// With N > 1 the I2O discipline still holds — strict priority across
	// levels, FIFO per target device, at most one in-flight frame per
	// device — but distinct devices dispatch concurrently, so handlers
	// written for the single loop need no new locking.  Reconfigurable at
	// runtime through SetDispatchers.
	Dispatchers int

	// DispatchBatch caps how many frames one worker drains from the
	// scheduler per lock acquisition.  0 (the default) drains one frame
	// per visit: priority is re-evaluated between every frame, exactly as
	// the paper's loop, and with parallel dispatchers a slow handler never
	// delays frames for other devices.  Values above 1 amortize the
	// scheduler lock for throughput at the cost of that isolation — a
	// worker dispatches its claimed batch in order, so frames late in a
	// batch wait on the handlers before them.
	DispatchBatch int

	// Probes receives the whitebox timing samples; defaults to
	// probe.Default.  Collection only happens while probe.Enable(true).
	Probes *probe.Registry

	// Metrics receives the node's operational counters (dispatch counts,
	// queue depths, transport frame/byte counts).  Defaults to a fresh
	// registry per executive, so a process hosting several nodes exports
	// per-node numbers; pass metrics.Default to share the process-wide
	// registry instead.
	Metrics *metrics.Registry

	// Logf sinks diagnostics; defaults to the standard logger.
	Logf func(format string, args ...any)
}

// Stats counts executive activity.
type Stats struct {
	Dispatched uint64 // frames upcalled to local devices
	Forwarded  uint64 // frames routed to remote IOPs
	Replies    uint64 // replies matched to pending requests
	Failures   uint64 // failure replies generated
	Dropped    uint64 // frames discarded (no reply expected, undeliverable)
}

// Executive is one IOP runtime.
type Executive struct {
	opts  Options
	table *tid.Table
	alloc pool.Allocator
	in    *queue.Sched

	mu      sync.RWMutex
	devices map[i2o.TID]*device.Device
	routes  map[i2o.NodeID]string
	router  Router

	pendMu  sync.Mutex
	pending map[uint32]*pendingReq
	ctxSeq  atomic.Uint32

	downMu    sync.RWMutex
	downPeers map[i2o.NodeID]struct{}

	healthMu     sync.RWMutex
	healthSource func() []i2o.Param

	memberMu   sync.RWMutex
	memberHook func(fn i2o.Function, params []i2o.Param) ([]i2o.Param, error)

	policyMu     sync.RWMutex
	policySource func() []i2o.Param

	timerMu  sync.Mutex
	timers   map[uint32]*time.Timer
	timerSeq atomic.Uint32

	self  *device.Device
	state atomic.Int32 // device.State of the whole IOP

	reg         *metrics.Registry
	nDispatched *metrics.Counter
	nForwarded  *metrics.Counter
	nReplies    *metrics.Counter
	nFailures   *metrics.Counter
	nDropped    *metrics.Counter
	nBatches    *metrics.Counter

	pDemux     *probe.Point
	pUpcall    *probe.Point
	pApp       *probe.Point
	pRelease   *probe.Point
	pFrameAloc *probe.Point
	pFrameFree *probe.Point

	traceOn   atomic.Bool
	traceRing *trace.Ring

	// Dispatch worker bookkeeping.  dispWant is the configured worker
	// count, dispLive the number currently running (they converge: surplus
	// workers retire themselves via a CAS on dispLive after the scheduler
	// bounces them with Interrupt), dispBusy how many are mid-batch.
	dispMu     sync.Mutex
	dispClosed bool
	dispWant   atomic.Int32
	dispLive   atomic.Int32
	dispBusy   atomic.Int32
	dispWG     sync.WaitGroup

	// runners is the reusable watchdog handler-runner pool (see
	// watchdog.go): with Watchdog > 0, dispatching borrows a runner
	// goroutine instead of spawning one per frame.
	runners runnerPool

	closeOnce sync.Once
}

// Errors.
var (
	// ErrClosed reports use of a closed executive.
	ErrClosed = errors.New("executive: closed")

	// ErrNoRoute reports a forward with no system table entry or router.
	ErrNoRoute = errors.New("executive: no route")

	// ErrTimeout reports an expired synchronous request.
	ErrTimeout = errors.New("executive: request timed out")

	// ErrPeerDown reports a frame refused — or a pending request failed —
	// because the health monitor has marked the target's node down.
	// Callers see it immediately instead of waiting out a timeout.
	ErrPeerDown = errors.New("executive: peer down")
)

// pendingReq tracks one outstanding synchronous request: the reply channel
// the dispatcher fills, a failure channel the health layer can trip, and
// the destination node (NodeNone for local targets) so a peer-down sweep
// can find the requests it strands.
type pendingReq struct {
	ch   chan *i2o.Message
	fail chan error
	node i2o.NodeID
}

// pendingPool recycles pendingReq slots and their channels across Request
// calls: the request hot path allocates neither.  Ownership discipline
// guards against late replies landing in a reused slot — only the party
// that removed the map entry under pendMu may deliver, and the waiter only
// recycles a slot proven quiescent (it consumed the delivery, or its own
// dropPending removed the entry so no delivery will ever come).
var pendingPool = sync.Pool{New: func() any {
	return &pendingReq{ch: make(chan *i2o.Message, 1), fail: make(chan error, 1)}
}}

func getPending(node i2o.NodeID) *pendingReq {
	p := pendingPool.Get().(*pendingReq)
	p.node = node
	return p
}

// putPending returns a quiescent slot to the pool.  The drains are belt
// and braces: under the ownership discipline both channels are already
// empty.
func putPending(p *pendingReq) {
	select {
	case rep, ok := <-p.ch:
		if ok && rep != nil {
			rep.Recycle()
		}
		if !ok {
			return // closed channel: the slot is dead, never reuse it
		}
	default:
	}
	select {
	case <-p.fail:
	default:
	}
	pendingPool.Put(p)
}

// New creates and starts an executive.  The dispatch loop runs until Close.
func New(opts Options) *Executive {
	if opts.Name == "" {
		opts.Name = "xdaq"
	}
	if opts.Allocator == nil {
		opts.Allocator = pool.NewTable(0)
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.Probes == nil {
		opts.Probes = probe.Default
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Logf == nil {
		logger := log.Default()
		name := opts.Name
		opts.Logf = func(format string, args ...any) {
			logger.Printf("["+name+"] "+format, args...)
		}
	}
	e := &Executive{
		opts:      opts,
		table:     tid.NewTable(),
		alloc:     opts.Allocator,
		in:        queue.NewSched(opts.QueueCapacity),
		devices:   make(map[i2o.TID]*device.Device),
		routes:    make(map[i2o.NodeID]string),
		pending:   make(map[uint32]*pendingReq),
		downPeers: make(map[i2o.NodeID]struct{}),
		timers:    make(map[uint32]*time.Timer),

		reg:         opts.Metrics,
		nDispatched: opts.Metrics.Counter("exec.dispatched"),
		nForwarded:  opts.Metrics.Counter("exec.forwarded"),
		nReplies:    opts.Metrics.Counter("exec.replies"),
		nFailures:   opts.Metrics.Counter("exec.failures"),
		nDropped:    opts.Metrics.Counter("exec.dropped"),
		nBatches:    opts.Metrics.Counter("exec.dispatch.batches"),

		pDemux:     opts.Probes.Point("exec.demux"),
		pUpcall:    opts.Probes.Point("exec.upcall"),
		pApp:       opts.Probes.Point("exec.app"),
		pRelease:   opts.Probes.Point("exec.release"),
		pFrameAloc: opts.Probes.Point("pool.frameAlloc"),
		pFrameFree: opts.Probes.Point("pool.frameFree"),

		traceRing: trace.NewRing(0),
	}
	e.state.Store(int32(device.Operational))
	e.registerMetrics()

	e.self = newSelfDevice(e)
	entry, err := e.table.Claim(i2o.TIDExecutive, "executive", 0)
	if err != nil {
		panic("executive: cannot claim TiD 1 on a fresh table: " + err.Error())
	}
	e.mu.Lock()
	e.devices[entry.TID] = e.self
	e.mu.Unlock()
	if err := e.self.Plugged(e, entry.TID); err != nil {
		panic("executive: self plug failed: " + err.Error())
	}
	e.self.SetState(device.Operational)

	e.SetDispatchers(opts.Dispatchers)
	return e
}

// SetDispatchers reconfigures the number of parallel dispatch workers at
// runtime (n < 1 is clamped to 1).  Growing spawns workers immediately;
// shrinking interrupts the scheduler so surplus workers retire after their
// current batch.  Frames never stall during either transition.
func (e *Executive) SetDispatchers(n int) {
	if n < 1 {
		n = 1
	}
	e.dispMu.Lock()
	defer e.dispMu.Unlock()
	if e.dispClosed {
		return
	}
	e.dispWant.Store(int32(n))
	for int(e.dispLive.Load()) < n {
		e.dispLive.Add(1)
		e.dispWG.Add(1)
		go e.dispatchWorker()
	}
	if int(e.dispLive.Load()) > n {
		e.in.Interrupt()
	}
}

// Dispatchers returns the configured dispatch worker count.
func (e *Executive) Dispatchers() int { return int(e.dispWant.Load()) }

// batchSize is the per-lock drain limit a worker uses.  The default of 1
// reproduces the paper's loop exactly (priority re-evaluated between every
// frame) and keeps parallel workers from claiming frames they cannot
// dispatch yet — a batch is dispatched in order by one worker, so any
// frame after a slow handler would wait on it.
func (e *Executive) batchSize() int {
	if e.opts.DispatchBatch > 0 {
		return e.opts.DispatchBatch
	}
	return 1
}

// registerMetrics publishes the executive's sampled gauges and installs
// the per-priority queue wait-time observer.  Sampled gauges surface
// values other subsystems already maintain (scheduler depths, pool
// statistics) without adding anything to their hot paths; the wait-time
// histograms only collect while metrics.Enable(true), the same gating
// discipline as the whitebox probes.
func (e *Executive) registerMetrics() {
	e.reg.Func("exec.queue.depth", func() int64 { return int64(e.in.Len()) })
	for p := 0; p < i2o.NumPriorities; p++ {
		prio := i2o.Priority(p)
		e.reg.Func(fmt.Sprintf("exec.queue.depth.p%d", p), func() int64 {
			return int64(e.in.LevelLen(prio))
		})
	}
	e.reg.Func("exec.devices", func() int64 { return int64(len(e.Devices())) })

	e.reg.Func("exec.dispatchers", func() int64 { return int64(e.dispWant.Load()) })
	e.reg.Func("exec.dispatchers.live", func() int64 { return int64(e.dispLive.Load()) })
	e.reg.Func("exec.dispatchers.busy", func() int64 { return int64(e.dispBusy.Load()) })

	e.reg.Func("pool.allocs", func() int64 { return int64(e.alloc.Stats().Allocs) })
	e.reg.Func("pool.fails", func() int64 { return int64(e.alloc.Stats().Fails) })
	e.reg.Func("pool.frees", func() int64 { return int64(e.alloc.Stats().Recycles) })
	e.reg.Func("pool.grows", func() int64 { return int64(e.alloc.Stats().Grows) })
	e.reg.Func("pool.inuse", func() int64 { return e.alloc.Stats().InUse })
	e.reg.Func("pool.highwater", func() int64 { return e.alloc.Stats().HighWater })

	var waits [i2o.NumPriorities]*metrics.Histogram
	for p := range waits {
		waits[p] = e.reg.Histogram(fmt.Sprintf("exec.queue.wait.p%d", p))
	}
	e.in.SetWaitObserver(func(p i2o.Priority, d time.Duration) {
		waits[p].Observe(d)
	})
}

// Metrics exposes the node's metrics registry (for the HTTP endpoint and
// for wiring transports created outside the executive).
func (e *Executive) Metrics() *metrics.Registry { return e.reg }

// Name returns the executive's configured name.
func (e *Executive) Name() string { return e.opts.Name }

// Node implements device.Host.
func (e *Executive) Node() i2o.NodeID { return e.opts.Node }

// Logf implements device.Host.
func (e *Executive) Logf(format string, args ...any) { e.opts.Logf(format, args...) }

// Allocator exposes the frame pool (benchmarks compare allocators).
func (e *Executive) Allocator() pool.Allocator { return e.alloc }

// Table exposes the address table for inspection.
func (e *Executive) Table() *tid.Table { return e.table }

// Stats returns a snapshot of dispatch counters.
func (e *Executive) Stats() Stats {
	return Stats{
		Dispatched: e.nDispatched.Value(),
		Forwarded:  e.nForwarded.Value(),
		Replies:    e.nReplies.Value(),
		Failures:   e.nFailures.Value(),
		Dropped:    e.nDropped.Value(),
	}
}

// QueueLen returns the inbound backlog.
func (e *Executive) QueueLen() int { return e.in.Len() }

// PendingRequests returns the number of outstanding correlated requests —
// entries in the pending-reply table waiting for a reply, timeout, or
// failure.  A quiescent executive reports zero; the chaos harness asserts
// exactly that after every storm drains.
func (e *Executive) PendingRequests() int {
	e.pendMu.Lock()
	n := len(e.pending)
	e.pendMu.Unlock()
	return n
}

// SetTrace switches the frame tracer on or off.  Remote operators use the
// ExecTraceGet message instead.
func (e *Executive) SetTrace(on bool) { e.traceOn.Store(on) }

// TraceRing exposes the trace buffer for local inspection.
func (e *Executive) TraceRing() *trace.Ring { return e.traceRing }

// traceFrame records one frame event when tracing is enabled.
func (e *Executive) traceFrame(kind trace.Kind, m *i2o.Message) {
	if e.traceOn.Load() {
		e.traceRing.Add(trace.Of(kind, m))
	}
}

// State returns the IOP-level operational state.
func (e *Executive) State() device.State { return device.State(e.state.Load()) }

// SetRouter installs the peer transport agent.
func (e *Executive) SetRouter(r Router) {
	e.mu.Lock()
	e.router = r
	e.mu.Unlock()
}

// SetRoute installs one system table entry: frames for node travel over the
// named peer transport route.
func (e *Executive) SetRoute(node i2o.NodeID, route string) {
	e.mu.Lock()
	e.routes[node] = route
	e.mu.Unlock()
}

// Route returns the configured route for a node.
func (e *Executive) Route(node i2o.NodeID) (string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.routes[node]
	return r, ok
}

// Routes returns a snapshot of the system table.  The health monitor scans
// it to learn which peers to probe.
func (e *Executive) Routes() map[i2o.NodeID]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[i2o.NodeID]string, len(e.routes))
	for node, route := range e.routes {
		out[node] = route
	}
	return out
}

// FailoverRoute atomically repoints all traffic for a node at another peer
// transport route: the system table entry is replaced and every existing
// proxy for the node is rerouted, so pending discovery results and the
// executive proxy switch fabrics without re-resolution.
func (e *Executive) FailoverRoute(node i2o.NodeID, route string) int {
	e.mu.Lock()
	e.routes[node] = route
	e.mu.Unlock()
	return e.table.Reroute(node, route)
}

// SetPeerDown marks a peer node down or up.  While down, frames for the
// node's proxies are refused with ErrPeerDown instead of being handed to a
// transport, and marking a node down fails every pending request bound for
// it immediately — the tail-latency fix: a request to a corpse no longer
// waits out its full timeout.
func (e *Executive) SetPeerDown(node i2o.NodeID, down bool) {
	if node == i2o.NodeNone {
		return
	}
	e.downMu.Lock()
	if down {
		e.downPeers[node] = struct{}{}
	} else {
		delete(e.downPeers, node)
	}
	e.downMu.Unlock()
	if !down {
		return
	}
	var stranded []*pendingReq
	e.pendMu.Lock()
	for ctx, p := range e.pending {
		if p.node == node {
			delete(e.pending, ctx)
			stranded = append(stranded, p)
		}
	}
	e.pendMu.Unlock()
	for _, p := range stranded {
		p.fail <- fmt.Errorf("%w: %v", ErrPeerDown, node)
	}
}

// PeerDown reports whether a node is currently marked down.
func (e *Executive) PeerDown(node i2o.NodeID) bool {
	e.downMu.RLock()
	_, down := e.downPeers[node]
	e.downMu.RUnlock()
	return down
}

// SetHealthSource installs the callback behind ExecHealthGet, normally the
// health monitor's Report.  The indirection keeps the executive free of
// health-layer knowledge, the same way Router keeps it free of transports.
func (e *Executive) SetHealthSource(fn func() []i2o.Param) {
	e.healthMu.Lock()
	e.healthSource = fn
	e.healthMu.Unlock()
}

// SetPolicySource installs the callback behind ExecPolicyGet, normally
// the control-plane autopilot's Report.  Like SetHealthSource, the
// indirection keeps the executive free of control-plane knowledge.  Nil
// uninstalls; nodes without a source answer autopilot=off.
func (e *Executive) SetPolicySource(fn func() []i2o.Param) {
	e.policyMu.Lock()
	e.policySource = fn
	e.policyMu.Unlock()
}

// SetMembershipHandler installs the callback behind ExecJoin and
// ExecPeerList, normally the cluster membership manager's message hook.
// The handler receives the function code and the request's decoded
// parameter list and returns the reply's parameters.  Like
// SetHealthSource, the indirection keeps the executive free of
// cluster-layer knowledge; without a handler installed, join attempts are
// answered with a failure reply.  Nil uninstalls.
func (e *Executive) SetMembershipHandler(fn func(i2o.Function, []i2o.Param) ([]i2o.Param, error)) {
	e.memberMu.Lock()
	e.memberHook = fn
	e.memberMu.Unlock()
}

// Plug registers a device module, assigns it a TiD and enables it.  This
// is the API form of the ExecPlugin message ("the object code is
// downloaded dynamically into the running executives.  At this point a
// plugin method ... allows us to register the downloaded object").
func (e *Executive) Plug(d *device.Device) (i2o.TID, error) {
	entry, err := e.table.AllocLocal(d.Class(), d.Instance())
	if err != nil {
		return i2o.TIDNone, err
	}
	e.mu.Lock()
	e.devices[entry.TID] = d
	e.mu.Unlock()
	if err := d.Plugged(e, entry.TID); err != nil {
		e.mu.Lock()
		delete(e.devices, entry.TID)
		e.mu.Unlock()
		_ = e.table.Release(entry.TID)
		return i2o.TIDNone, fmt.Errorf("executive: plug %s: %w", d.Class(), err)
	}
	d.SetState(device.Operational)
	e.notifyDeviceChange("plug", d.Class(), d.Instance(), entry.TID)
	return entry.TID, nil
}

// XFuncDeviceChange is the private event the executive sends to
// UtilEventRegister subscribers whenever a device module is plugged or
// unplugged — configuration changes are occurrences, and "essentially
// every occurrence in the system is mapped to an I2O message" (§3.2).
const XFuncDeviceChange uint16 = 0xFF02

// notifyDeviceChange fans a plug/unplug event out to the executive
// device's event subscribers.
func (e *Executive) notifyDeviceChange(action, class string, instance int, id i2o.TID) {
	if len(e.self.Subscribers()) == 0 {
		return
	}
	payload, err := i2o.EncodeParams([]i2o.Param{
		{Key: "action", Value: action},
		{Key: "class", Value: class},
		{Key: "instance", Value: int64(instance)},
		{Key: "tid", Value: int64(id)},
	})
	if err != nil {
		e.Logf("device change event: %v", err)
		return
	}
	if err := e.self.Notify(XFuncDeviceChange, i2o.PriorityHigh, payload); err != nil {
		e.Logf("device change event: %v", err)
	}
}

// Unplug removes a device module and releases its TiD.
func (e *Executive) Unplug(id i2o.TID) error {
	e.mu.Lock()
	d, ok := e.devices[id]
	if ok {
		delete(e.devices, id)
	}
	e.mu.Unlock()
	if !ok || d == e.self {
		if d == e.self {
			e.mu.Lock()
			e.devices[id] = d
			e.mu.Unlock()
			return fmt.Errorf("executive: cannot unplug the executive itself")
		}
		return fmt.Errorf("%w: %v", tid.ErrUnknown, id)
	}
	if err := e.table.Release(id); err != nil {
		return err
	}
	d.Unplugged()
	e.notifyDeviceChange("unplug", d.Class(), d.Instance(), id)
	return nil
}

// Devices returns a snapshot of all registered device modules.
func (e *Executive) Devices() []*device.Device {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*device.Device, 0, len(e.devices))
	for _, d := range e.devices {
		out = append(out, d)
	}
	return out
}

// Close stops the dispatch workers, cancels timers and releases queued
// frames.  It is idempotent.
func (e *Executive) Close() {
	e.closeOnce.Do(func() {
		e.timerMu.Lock()
		for id, t := range e.timers {
			t.Stop()
			delete(e.timers, id)
		}
		e.timerMu.Unlock()

		e.dispMu.Lock()
		e.dispClosed = true
		e.dispMu.Unlock()
		e.in.Close()
		e.dispWG.Wait()
		for _, m := range e.in.Drain() {
			m.Recycle()
		}

		e.pendMu.Lock()
		for ctx, p := range e.pending {
			close(p.ch)
			delete(e.pending, ctx)
		}
		e.pendMu.Unlock()

		e.runners.close()
	})
}
