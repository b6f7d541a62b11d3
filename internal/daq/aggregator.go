package daq

import (
	"fmt"
	"sync"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// AggClass is the aggregator device class name.
const AggClass = "daq.agg"

// AggChild describes one downstream source of an aggregator: a readout
// unit (leaf) or another aggregator (interior node of a deeper tree).
type AggChild struct {
	TID i2o.TID
	Agg bool // child is an aggregator, addressed via XFuncSuper
}

// Aggregator is an intermediate event-builder stage: it absorbs the
// fan-in of a bounded set of readout units (or deeper aggregators),
// combining their fragments for an event block into one super-fragment
// reply.  A builder unit then talks to O(log RUs) aggregator roots
// instead of every RU — the QCDSP-style tree the paper's flat topology
// lacks (see doc/architecture.md).
//
// Like the BU it is a pure event-driven state machine: the parent's
// XFuncSuper request fans out as child requests, the child replies
// complete the pending super, and the merged reply goes back to the
// parent.  Fences are inherited from the children — a stale or not-owner
// failure anywhere in the subtree propagates to the parent with the same
// code, so the builder's retry logic is identical with and without
// intermediate stages.
type Aggregator struct {
	dev      *device.Device
	instance int

	evm      i2o.TID
	children []AggChild

	mu      sync.Mutex
	pending map[uint32]*aggPending
	seq     uint32
}

// aggPending is one super-fragment under assembly.  The originating
// request frame is recycled when its handler returns, so every field
// needed to address the eventual reply is copied here.
type aggPending struct {
	// Reply routing, copied from the parent's request.
	target, initiator i2o.TID
	prio              i2o.Priority
	initCtx, txnCtx   uint32

	version   uint64
	first     uint64
	count     uint32
	remaining int
	frags     []Fragment // data copied out of child reply frames
	bytes     int
}

// NewAggregator creates aggregator `instance`.
func NewAggregator(instance int) *Aggregator {
	a := &Aggregator{instance: instance, evm: i2o.TIDNone}
	a.dev = device.New(AggClass, instance)
	a.dev.Bind(XFuncSuper, a.handleSuper)
	a.dev.Bind(XFuncFragment, a.handleChildReply)
	a.pending = make(map[uint32]*aggPending)
	return a
}

// Device returns the module to plug into an executive.
func (a *Aggregator) Device() *device.Device { return a.dev }

// Configure wires the aggregator to its children; evm (optional,
// i2o.TIDNone to disable) names the event manager whose shard map pushes
// the aggregator should receive — the aggregator itself does not fence,
// its leaf RUs do, but subscribing keeps a deep tree's map copies warm.
// Must precede use.
func (a *Aggregator) Configure(evm i2o.TID, children []AggChild) {
	a.evm = evm
	a.children = append([]AggChild(nil), children...)
}

// handleSuper accepts a parent's block request (and, in deeper trees,
// aggregator children's replies, which carry FlagReply).
func (a *Aggregator) handleSuper(ctx *device.Context, m *i2o.Message) error {
	if m.Flags.Has(i2o.FlagReply) {
		return a.handleChildReply(ctx, m)
	}
	if !m.Flags.Has(i2o.FlagReplyExpected) {
		return nil
	}
	req, err := DecodeFragReq(m.Payload)
	if err != nil {
		return err
	}
	if len(a.children) == 0 {
		return fmt.Errorf("daq: aggregator %d not configured", a.instance)
	}
	p := &aggPending{
		target:    m.Initiator,
		initiator: m.Target,
		prio:      m.Priority,
		initCtx:   m.InitiatorContext,
		txnCtx:    m.TransactionContext,
		version:   req.Version,
		first:     req.First,
		count:     req.Count,
		remaining: len(a.children),
	}
	a.mu.Lock()
	a.seq++
	key := a.seq
	a.pending[key] = p
	a.mu.Unlock()

	// The request payload is forwarded unchanged to every child, but the
	// frame it rides in is recycled after this handler — each child send
	// needs its own copy.
	payload := m.Payload
	for i, c := range a.children {
		xfunc := uint16(XFuncFragment)
		if c.Agg {
			xfunc = XFuncSuper
		}
		cm := &i2o.Message{
			Flags:              i2o.FlagReplyExpected,
			Priority:           m.Priority,
			Target:             c.TID,
			Initiator:          a.dev.TID(),
			Function:           i2o.FuncPrivate,
			Org:                i2o.OrgXDAQ,
			XFunction:          xfunc,
			TransactionContext: key<<8 | uint32(i),
			Payload:            append([]byte(nil), payload...),
		}
		if err := ctx.Host.Send(cm); err != nil {
			a.abandon(ctx, key, FailStaleShard, fmt.Sprintf("child %d unreachable: %v", i, err))
			return nil
		}
	}
	return nil
}

// handleChildReply folds one child's fragments into the pending super.
func (a *Aggregator) handleChildReply(ctx *device.Context, m *i2o.Message) error {
	if !m.Flags.Has(i2o.FlagReply) {
		return fmt.Errorf("daq: aggregator serves no leaf fragments")
	}
	key := m.TransactionContext >> 8
	a.mu.Lock()
	p := a.pending[key]
	a.mu.Unlock()
	if p == nil {
		return nil // super already abandoned; late child reply
	}
	if err := i2o.ReplyError(m); err != nil {
		code := i2o.FailApplication
		if rec, ok := err.(*i2o.FailRecord); ok {
			code = rec.Code
		}
		a.abandon(ctx, key, code, err.Error())
		return nil
	}
	rep, err := DecodeFragRep(m.Payload)
	if err != nil {
		a.abandon(ctx, key, i2o.FailBadFrame, err.Error())
		return nil
	}

	a.mu.Lock()
	p = a.pending[key]
	if p == nil {
		a.mu.Unlock()
		return nil
	}
	if rep.Version > p.version {
		p.version = rep.Version
	}
	for _, f := range rep.Frags {
		// The reply frame's buffer is recycled after this handler; the
		// fragment data must be copied to outlive it.
		p.frags = append(p.frags, Fragment{
			RU:    f.RU,
			Event: f.Event,
			Data:  append([]byte(nil), f.Data...),
		})
		p.bytes += len(f.Data)
	}
	p.remaining--
	done := p.remaining == 0
	if done {
		delete(a.pending, key)
	}
	a.mu.Unlock()
	if !done {
		return nil
	}

	buf, err := ctx.Host.Alloc(EncodedFragRepLen(len(p.frags), p.bytes))
	if err != nil {
		return err
	}
	body := buf.Bytes()
	off := AppendFragRepHeader(body, p.version, p.first, p.count, uint32(len(p.frags)))
	for _, f := range p.frags {
		dataOff, next := AppendFragment(body, off, f.RU, f.Event, len(f.Data))
		copy(body[dataOff:], f.Data)
		off = next
	}
	out := a.replySkeleton(p)
	out.Payload = body
	out.AttachBuffer(buf)
	if err := ctx.Host.Send(out); err != nil {
		return err
	}
	return nil
}

// abandon drops a pending super and propagates a failure to the parent.
func (a *Aggregator) abandon(ctx *device.Context, key uint32, code i2o.FailCode, detail string) {
	a.mu.Lock()
	p := a.pending[key]
	delete(a.pending, key)
	a.mu.Unlock()
	if p == nil {
		return
	}
	out := a.replySkeleton(p)
	out.Flags |= i2o.FlagFail
	out.Payload = (&i2o.FailRecord{Code: code, Detail: detail}).EncodeFail()
	if err := ctx.Host.Send(out); err != nil {
		ctx.Host.Logf("daq: aggregator %d fail reply: %v", a.instance, err)
	}
}

// replySkeleton reconstructs the reply frame NewReply would have built
// from the original request (which is long recycled).
func (a *Aggregator) replySkeleton(p *aggPending) *i2o.Message {
	return &i2o.Message{
		Flags:              i2o.FlagReply,
		Priority:           p.prio,
		Target:             p.target,
		Initiator:          p.initiator,
		Function:           i2o.FuncPrivate,
		Org:                i2o.OrgXDAQ,
		XFunction:          XFuncSuper,
		InitiatorContext:   p.initCtx,
		TransactionContext: p.txnCtx,
	}
	// Note: the parent addressed us with XFuncSuper, so the reply carries
	// the same code and lands in its XFuncSuper handler.
}
