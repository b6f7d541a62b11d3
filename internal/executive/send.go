package executive

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/probe"
	"xdaq/internal/queue"
	"xdaq/internal/tid"
)

// Alloc implements device.Host: frameAlloc, a buffer from the executive's
// pool (probed for the Table 1 cross check).
func (e *Executive) Alloc(n int) (*pool.Buffer, error) {
	if probe.Enabled() {
		t0 := time.Now()
		b, err := e.alloc.Alloc(n)
		e.pFrameAloc.Since(t0)
		return b, err
	}
	return e.alloc.Alloc(n)
}

// AllocMessage builds a private message whose payload lives in a fresh
// pool block of n bytes, ready for zero-copy sending.  The frame struct
// comes from the i2o free list and is recycled by the dispatcher once its
// dispatch ends, so steady-state senders allocate nothing per message.
func (e *Executive) AllocMessage(n int) (*i2o.Message, error) {
	b, err := e.Alloc(n)
	if err != nil {
		return nil, err
	}
	m := i2o.AcquireMessage()
	m.Priority = i2o.PriorityDefault
	m.Function = i2o.FuncPrivate
	m.Org = i2o.OrgXDAQ
	m.Payload = b.Bytes()
	m.AttachBuffer(b)
	return m, nil
}

// Free releases a message's pool buffer (frameFree).  Equivalent to
// m.Release, with the whitebox probe applied.
func (e *Executive) Free(m *i2o.Message) {
	if probe.Enabled() {
		t0 := time.Now()
		m.Release()
		e.pFrameFree.Since(t0)
		return
	}
	m.Release()
}

// Send implements device.Host: frameSend.  Ownership of the message (and
// its attached buffer) passes to the executive: local targets are pushed
// to the inbound scheduler, proxy targets are forwarded through the
// router.  The caller must not touch m afterwards unless it retained the
// buffer first.
func (e *Executive) Send(m *i2o.Message) error {
	return e.send(m, false)
}

// send is Send with a bypass for the peer-down gate, so health probes can
// keep testing a node that is marked down (recovery would otherwise be
// undetectable).
func (e *Executive) send(m *i2o.Message, bypassDown bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	entry, ok := e.table.Lookup(m.Target)
	if !ok {
		e.nDropped.Add(1)
		return fmt.Errorf("%w: %v", tid.ErrUnknown, m.Target)
	}
	if entry.Kind == tid.Proxy {
		// The peer-down gate fast-fails NEW work addressed at a down
		// peer.  Replies (return-proxy targets) are exempt: the request
		// they answer already arrived, and swallowing the answer turns a
		// one-sided down-marking into a hang on the other side — a node
		// that marks a live peer down (a graceful leave does exactly
		// this) would otherwise also stop acking that peer's frames and
		// drag it down too.  If the peer really is dead the forward
		// fails at the transport instead.
		if !bypassDown && e.PeerDown(entry.Node) && !strings.HasPrefix(entry.Class, peerClass) {
			m.Release()
			e.nDropped.Add(1)
			return fmt.Errorf("%w: %v", ErrPeerDown, entry.Node)
		}
		return e.forward(entry, m)
	}
	if err := e.in.Push(m); err != nil {
		e.nDropped.Add(1)
		if err == queue.ErrFull {
			// Both sentinels stay in the chain: queue.ErrFull is the public
			// ErrQueueFull, pool.ErrExhausted is the historical resource
			// classification.
			return fmt.Errorf("%w (%w): inbound queue", queue.ErrFull, pool.ErrExhausted)
		}
		return ErrClosed
	}
	return nil
}

// Inject pushes a frame into the inbound scheduler without address
// rewriting.  Transports and tests use it for locally terminated frames.
func (e *Executive) Inject(m *i2o.Message) error {
	if err := e.in.Push(m); err != nil {
		e.nDropped.Add(1)
		m.Release()
		return ErrClosed
	}
	return nil
}

// InjectFrom delivers a frame received from a remote IOP.  Peer operation
// (figure 4): the receiving side creates (or finds) a local proxy for the
// remote initiator and rewrites the frame's initiator address to it, so
// replies route back transparently — the caller never needs to know the
// device is remote.
func (e *Executive) InjectFrom(src i2o.NodeID, route string, m *i2o.Message) error {
	if m.Initiator.Valid() {
		local, err := e.returnProxy(src, route, m.Initiator)
		if err != nil {
			m.Release()
			return err
		}
		m.Initiator = local
	}
	return e.Inject(m)
}

// peerClass prefixes return proxies in the address table.  The full class
// name includes the arrival route, so that when two transports connect
// the same pair of IOPs in parallel (§4), replies travel back over the
// transport the request came in on rather than collapsing onto whichever
// route made first contact.
const peerClass = "@peer"

func (e *Executive) returnProxy(node i2o.NodeID, route string, remote i2o.TID) (i2o.TID, error) {
	class := peerClass + ":" + route
	if entry, ok := e.table.Resolve(class, int(remote), node); ok {
		return entry.TID, nil
	}
	entry, err := e.table.AllocProxy(class, int(remote), node, route, remote)
	if err != nil {
		// A concurrent delivery may have created it between Resolve and
		// AllocProxy.
		if entry, ok := e.table.Resolve(class, int(remote), node); ok {
			return entry.TID, nil
		}
		return i2o.TIDNone, err
	}
	return entry.TID, nil
}

// forward hands a frame for a proxy entry to the router, rewriting the
// target to the remote TiD.  Ownership passes to the router.
func (e *Executive) forward(entry tid.Entry, m *i2o.Message) error {
	e.mu.RLock()
	r := e.router
	e.mu.RUnlock()
	if r == nil {
		m.Release()
		return fmt.Errorf("%w: no router installed", ErrNoRoute)
	}
	m.Target = entry.Remote
	if err := r.Forward(entry.Route, entry.Node, m); err != nil {
		return fmt.Errorf("executive: forward via %s: %w", entry.Route, err)
	}
	e.nForwarded.Add(1)
	return nil
}

// Request implements device.Host: it assigns a fresh initiator context,
// marks the frame reply-expected, sends it and blocks for the correlated
// reply (or the node's default timeout).  The caller owns the returned
// reply and must Release it when it carries a pool buffer.
func (e *Executive) Request(m *i2o.Message) (*i2o.Message, error) {
	return e.RequestContext(context.Background(), m)
}

// RequestContext is Request honoring the context's cancellation and
// deadline.  A context without a deadline falls back to the node's
// configured RequestTimeout.  When the call is cancelled or times out, the
// pending reply is unregistered and any reply racing in is released, so no
// pool buffer is stranded; deadline expiry surfaces as ErrTimeout, plain
// cancellation as the context's own error.
func (e *Executive) RequestContext(ctx context.Context, m *i2o.Message) (*i2o.Message, error) {
	return e.requestContext(ctx, m, false)
}

func (e *Executive) requestContext(ctx context.Context, m *i2o.Message, bypassDown bool) (*i2o.Message, error) {
	reqCtx := e.nextContext()
	m.InitiatorContext = reqCtx
	m.Flags |= i2o.FlagReplyExpected

	// Resolve the destination node up front so a later peer-down sweep can
	// find this request.
	node := i2o.NodeNone
	if entry, ok := e.table.Lookup(m.Target); ok && entry.Kind == tid.Proxy {
		node = entry.Node
	}
	p := getPending(node)
	e.pendMu.Lock()
	e.pending[reqCtx] = p
	e.pendMu.Unlock()

	// Capture before send: ownership of m passes to the executive, and for
	// a local target the dispatcher may have recycled the frame (scrubbing
	// its fields) before we read it again.
	target := m.Target

	if err := e.send(m, bypassDown); err != nil {
		if e.dropPending(reqCtx) {
			// Nobody delivered into the slot (a racing peer-down sweep
			// would have removed the entry first), so it is reusable.
			putPending(p)
		}
		return nil, err
	}

	// The per-call deadline comes from the context; without one, the
	// node-global default applies.
	var timeoutC <-chan time.Time
	var fallback time.Duration
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		fallback = e.opts.RequestTimeout
		timer := acquireTimer(fallback)
		defer releaseTimer(timer)
		timeoutC = timer.C
	}

	select {
	case rep, ok := <-p.ch:
		if !ok {
			// Close() shut the channel; the slot is dead, leave it to the
			// garbage collector.
			return nil, ErrClosed
		}
		putPending(p)
		if err := i2o.ReplyError(rep); err != nil {
			rep.Recycle()
			return nil, replyFailure(err)
		}
		return rep, nil
	case err := <-p.fail:
		putPending(p)
		return nil, err
	case <-ctx.Done():
		e.abandonPending(reqCtx, p)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %v (%v)", ErrTimeout, ctx.Err(), target)
		}
		return nil, ctx.Err()
	case <-timeoutC:
		e.abandonPending(reqCtx, p)
		return nil, fmt.Errorf("%w after %v (%v)", ErrTimeout, fallback, target)
	}
}

// abandonPending gives up on a pending request at timeout or cancellation.
// Recycling the slot is only legal when no delivery can still be in
// flight: either our dropPending removed the map entry (so nobody else
// ever will deliver), or the racing deliverer's frame is already parked in
// the buffered channel — deliverPending parks atomically with the removal,
// so a reply frame can always be drained and its pool buffer reclaimed.  A
// peer-down sweep, though, removes entries first and posts its error after;
// a slot caught in that window is abandoned to the garbage collector (the
// error carries no pool buffer, so nothing leaks).
func (e *Executive) abandonPending(reqCtx uint32, p *pendingReq) {
	if e.dropPending(reqCtx) {
		putPending(p)
		return
	}
	if e.drainParked(p) {
		putPending(p)
	}
}

// replyFailure maps remote failure records onto local sentinels, so a peer
// refusing a forward because *its* health monitor marked the final hop down
// surfaces as ErrPeerDown here too.
func replyFailure(err error) error {
	var rec *i2o.FailRecord
	if errors.As(err, &rec) && rec.Code == i2o.FailPeerDown {
		return fmt.Errorf("%w: %v", ErrPeerDown, rec)
	}
	return err
}

// drainParked releases a reply the dispatcher may have parked in the
// buffered channel just before the waiter gave up, so its pool buffer is
// not stranded.  It reports whether a delivery was actually consumed
// (false also covers a channel closed by Close).
func (e *Executive) drainParked(p *pendingReq) bool {
	select {
	case rep, ok := <-p.ch:
		if ok && rep != nil {
			rep.Recycle()
		}
		return ok
	default:
		return false
	}
}

// PingContext sends an ExecPing to the node's executive and waits for the
// empty reply.  It bypasses the peer-down gate — the health monitor must be
// able to probe a node it has given up on, or recovery would never be seen.
func (e *Executive) PingContext(ctx context.Context, node i2o.NodeID) error {
	target, err := e.ExecProxy(node)
	if err != nil {
		return err
	}
	rep, err := e.requestContext(ctx, &i2o.Message{
		Priority:  i2o.PriorityUrgent,
		Target:    target,
		Initiator: i2o.TIDExecutive,
		Function:  i2o.ExecPing,
	}, true)
	if err != nil {
		return err
	}
	rep.Recycle()
	return nil
}

// nextContext returns a nonzero correlation token.
func (e *Executive) nextContext() uint32 {
	for {
		if ctx := e.ctxSeq.Add(1); ctx != 0 {
			return ctx
		}
	}
}

// dropPending unregisters a pending request, reporting whether the entry
// was still present — i.e. whether the caller, not some racing deliverer,
// won ownership of the slot.
func (e *Executive) dropPending(ctx uint32) bool {
	e.pendMu.Lock()
	_, ok := e.pending[ctx]
	if ok {
		delete(e.pending, ctx)
	}
	e.pendMu.Unlock()
	return ok
}

// deliverPending hands a correlated reply to its waiter.  The park into the
// slot's buffered channel happens inside the same critical section that
// removes the map entry: a waiter giving up concurrently either still finds
// the entry (and owns the slot), or finds it gone with the frame already
// parked — drainParked can then always reclaim the reply's pool buffer, so
// an abandoned slot never strands a block.
func (e *Executive) deliverPending(ctx uint32, m *i2o.Message) bool {
	e.pendMu.Lock()
	p, ok := e.pending[ctx]
	if ok {
		delete(e.pending, ctx)
		p.ch <- m
	}
	e.pendMu.Unlock()
	return ok
}

// Resolve implements device.Host: it returns the local TiD for a device on
// any node.  Local devices resolve against the table; remote devices must
// already have a proxy (created by Discover or by return traffic).
func (e *Executive) Resolve(class string, instance int, node i2o.NodeID) (i2o.TID, error) {
	if node == e.opts.Node {
		node = i2o.NodeNone
	}
	if entry, ok := e.table.Resolve(class, instance, node); ok {
		return entry.TID, nil
	}
	if node == i2o.NodeNone {
		return i2o.TIDNone, fmt.Errorf("%w: %s[%d] local", tid.ErrUnknown, class, instance)
	}
	return i2o.TIDNone, fmt.Errorf("%w: %s[%d]@%v (run Discover first)", tid.ErrUnknown, class, instance, node)
}

// ExecProxy returns (creating if necessary) the local proxy for the remote
// node's executive.  Every IOP's executive is at the well-known TiD 1, so
// this needs only a system table route.
func (e *Executive) ExecProxy(node i2o.NodeID) (i2o.TID, error) {
	route, ok := e.Route(node)
	if !ok {
		return i2o.TIDNone, fmt.Errorf("%w: node %v not in system table", ErrNoRoute, node)
	}
	if entry, ok := e.table.Resolve("@exec", 0, node); ok {
		return entry.TID, nil
	}
	entry, err := e.table.AllocProxy("@exec", 0, node, route, i2o.TIDExecutive)
	if err != nil {
		if entry, ok := e.table.Resolve("@exec", 0, node); ok {
			return entry.TID, nil
		}
		return i2o.TIDNone, err
	}
	return entry.TID, nil
}

// Discover queries the remote node's hardware resource table for
// (class, instance), creates a local proxy for it and returns the proxy
// TiD.  This is the paper's "[the module] will also request the
// availability of other device class instances on remote IOPs and
// triggers the creation of proxy TiDs".
func (e *Executive) Discover(node i2o.NodeID, class string, instance int) (i2o.TID, error) {
	if entry, ok := e.table.Resolve(class, instance, node); ok {
		return entry.TID, nil
	}
	execTID, err := e.ExecProxy(node)
	if err != nil {
		return i2o.TIDNone, err
	}
	route, _ := e.Route(node)

	req := &i2o.Message{
		Priority:  i2o.PriorityHigh,
		Target:    execTID,
		Initiator: i2o.TIDExecutive,
		Function:  i2o.ExecHrtGet,
	}
	rep, err := e.Request(req)
	if err != nil {
		return i2o.TIDNone, fmt.Errorf("executive: discover on %v: %w", node, err)
	}
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		return i2o.TIDNone, err
	}
	want := hrtKey(class, instance)
	for _, p := range params {
		if p.Key != want {
			continue
		}
		remote, ok := p.Value.(int64)
		if !ok || !i2o.TID(remote).Valid() {
			return i2o.TIDNone, fmt.Errorf("executive: bad HRT entry %q=%v", p.Key, p.Value)
		}
		entry, err := e.table.AllocProxy(class, instance, node, route, i2o.TID(remote))
		if err != nil {
			if entry, ok := e.table.Resolve(class, instance, node); ok {
				return entry.TID, nil
			}
			return i2o.TIDNone, err
		}
		return entry.TID, nil
	}
	return i2o.TIDNone, fmt.Errorf("%w: %s[%d] not in HRT of %v", tid.ErrUnknown, class, instance, node)
}

// hrtKey encodes one resource table row key.
func hrtKey(class string, instance int) string {
	return fmt.Sprintf("%s#%d", class, instance)
}
