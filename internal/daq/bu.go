package daq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/chain"
	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/storage"
)

// storeSweepDelay paces the resend sweep over unacked storage writes.
// A lost frame (or a lost ack) heals on the next sweep; the writers'
// duplicate filter makes any double-delivery harmless.
const storeSweepDelay = 50 * time.Millisecond

// ErrKilled reports a run terminated by Kill (the chaos harness's builder
// failure injection).
var ErrKilled = errors.New("daq: builder unit killed")

// retryDelay paces the BU's polling retries: allocation re-asks after an
// AllocRetry, and fragment re-requests after a transient FailStaleShard.
const retryDelay = 500 * time.Microsecond

// BUStats summarizes a builder unit's run.  Every field is maintained
// with atomics, so Stats is safe to call from any goroutine while
// dispatchers and retry timers are mutating the run concurrently.
type BUStats struct {
	Built        uint64 // complete events assembled
	Bytes        uint64 // fragment payload bytes received
	Corrupt      uint64 // fragments whose fill byte did not verify
	StaleRetries uint64 // fragment requests retried after a shard fence
	LostBlocks   uint64 // blocks dropped because ownership moved away
	Stored       uint64 // events acked durable by a storage writer
	WriteStalls  uint64 // AckFull nacks (storage backpressure events)
}

// BU is a builder unit: the consumer side of the event builder.  It is an
// event-driven state machine — transitions happen inside message handlers
// and retry timers, guarded by one mutex (timers run off the dispatch
// goroutine, so the run state is no longer single-threaded).  Start
// itself only posts a kickoff frame to the BU's own TiD ("essentially
// every occurrence in the system is mapped to an I2O message").
//
// The unit works in event blocks: it registers with the EVM (entering the
// shard map), then keeps up to `pipeline` block allocations in flight.
// Each granted block fans out one FragReq per source — every RU in the
// flat wiring, or a handful of aggregator roots in the tree wiring — and
// completes as the batched replies drain in.
type BU struct {
	dev      *device.Device
	instance int

	// Wiring, set before Start.
	evm      i2o.TID
	srcs     []i2o.TID // fragment sources: RUs (flat) or aggregator roots (tree)
	srcFunc  uint16    // XFuncFragment (flat) or XFuncSuper (tree)
	perEvent int       // fragments expected per event (= total RUs)

	// Storage wiring, set before Start: built events stream to
	// writers[event % len(writers)] and the run only finishes once every
	// one is acked durable.
	writers     []i2o.TID
	storeWindow int

	// OnEvent, if set, runs for every built event.  It is called with
	// the BU's run lock held; keep it short and never call back into the
	// BU.
	OnEvent func(event uint64, size int)

	// Run state, guarded by mu (handlers and retry timers).
	mu        sync.Mutex
	target    uint64
	pipeline  int
	issued    uint64
	allocsOut int
	timersOut int
	over      bool
	blocks    map[uint32]*blockBuild
	unacked   map[uint64][]byte // event -> write payload awaiting a storage ack
	sweeping  bool
	done      chan struct{}
	running   bool
	failure   error
	runCtx    *device.Context

	blockSeq atomic.Uint32 // monotonic across runs: stale replies miss
	runGen   atomic.Uint32 // stamped on alloc/register requests
	killed   atomic.Bool
	shardVer atomic.Uint64

	built   atomic.Uint64
	bytes   atomic.Uint64
	corrupt atomic.Uint64
	stale   atomic.Uint64
	lost    atomic.Uint64
	stored  atomic.Uint64
	wstalls atomic.Uint64

	xferSeq atomic.Uint32
}

// blockBuild is one event block under assembly.
type blockBuild struct {
	first       uint64
	count       uint32
	skip        uint64
	pendingSrcs int
	doneEvents  int
	events      []eventBuild
}

type eventBuild struct {
	got   int
	bytes int
	done  bool
	frags [][]byte // fragment copies, kept only when storing events
}

// NewBU creates builder unit `instance`.
func NewBU(instance int) *BU {
	b := &BU{instance: instance, evm: i2o.TIDNone}
	b.dev = device.New(BUClass, instance)
	b.dev.Bind(XFuncStart, b.handleStart)
	b.dev.Bind(XFuncAllocate, b.handleAllocateReply)
	b.dev.Bind(XFuncRegister, b.handleRegisterReply)
	b.dev.Bind(XFuncFragment, b.handleFragmentReply)
	b.dev.Bind(XFuncSuper, b.handleFragmentReply)
	b.dev.Bind(storage.XFuncWriteAck, b.handleWriteAck)
	b.dev.OnPlugged = func(ctx *device.Context) error {
		registerBUMetrics(ctx, b)
		return nil
	}
	return b
}

// Device returns the module to plug into an executive.
func (b *BU) Device() *device.Device { return b.dev }

// Configure wires the builder flat: it talks to every readout unit
// directly (local TiDs; proxies for remote devices).  Must precede Start.
func (b *BU) Configure(evm i2o.TID, rus []i2o.TID) {
	b.evm = evm
	b.srcs = append([]i2o.TID(nil), rus...)
	b.srcFunc = XFuncFragment
	b.perEvent = len(rus)
}

// ConfigureTree wires the builder hierarchically: fragment requests go to
// the given aggregator roots, each covering a subtree of readout units;
// totalRUs is the number of leaf RUs across all subtrees (the fragment
// count that completes an event).  Must precede Start.
func (b *BU) ConfigureTree(evm i2o.TID, roots []i2o.TID, totalRUs int) {
	b.evm = evm
	b.srcs = append([]i2o.TID(nil), roots...)
	b.srcFunc = XFuncSuper
	b.perEvent = totalRUs
}

// SetStorage streams every built event to a striped set of storage
// writers: event e goes to writers[e % len(writers)] as an XFuncWrite
// chain transfer.  window bounds the events awaiting a durable ack —
// when it fills, the BU stops asking the EVM for grants, which is how
// slow disks throttle the whole readout.  nil disables storage.  Must
// precede Start.
func (b *BU) SetStorage(writers []i2o.TID, window int) {
	if window <= 0 {
		window = 32
	}
	b.writers = append([]i2o.TID(nil), writers...)
	b.storeWindow = window
}

// Stats returns the current counters (atomic reads; safe concurrently
// with a running build).
func (b *BU) Stats() BUStats {
	return BUStats{
		Built:        b.built.Load(),
		Bytes:        b.bytes.Load(),
		Corrupt:      b.corrupt.Load(),
		StaleRetries: b.stale.Load(),
		LostBlocks:   b.lost.Load(),
		Stored:       b.stored.Load(),
		WriteStalls:  b.wstalls.Load(),
	}
}

// Err returns the failure that ended the run, if any.
func (b *BU) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failure
}

// Start begins building nevents events (0 = run until the EVM is
// exhausted), keeping up to pipeline event blocks in flight.  It returns
// the channel closed at completion.
func (b *BU) Start(nevents uint64, pipeline int) (<-chan struct{}, error) {
	if pipeline <= 0 {
		pipeline = 1
	}
	ctx, err := b.dev.Ctx()
	if err != nil {
		return nil, err
	}
	if b.evm == i2o.TIDNone || len(b.srcs) == 0 {
		return nil, errors.New("daq: builder unit not configured")
	}
	b.mu.Lock()
	if b.running {
		b.mu.Unlock()
		return nil, errors.New("daq: builder unit already running")
	}
	b.running = true
	b.failure = nil
	b.done = make(chan struct{})
	done := b.done
	b.killed.Store(false)
	b.runGen.Add(1)
	// Counters reset here, not in the kickoff handler: the moment Start
	// returns, Stats reports this run — a caller gating on progress (the
	// chaos harness's builder-kill trigger) must never read a stale tally
	// from the previous round.
	b.built.Store(0)
	b.bytes.Store(0)
	b.corrupt.Store(0)
	b.stale.Store(0)
	b.lost.Store(0)
	b.stored.Store(0)
	b.wstalls.Store(0)
	b.mu.Unlock()

	payload := make([]byte, 12)
	binary.LittleEndian.PutUint64(payload, nevents)
	binary.LittleEndian.PutUint32(payload[8:], uint32(pipeline))
	if err := send(ctx.Host, b.dev.TID(), b.dev.TID(), XFuncStart, i2o.PriorityHigh, payload); err != nil {
		b.finish(err)
		return done, err
	}
	return done, nil
}

// Wait blocks until the current run completes and returns its stats.
func (b *BU) Wait() (BUStats, error) {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	if done != nil {
		<-done
	}
	return b.Stats(), b.Err()
}

// Kill terminates the run immediately: in-flight frames are dropped on
// arrival and Wait returns ErrKilled.  It models a crashed builder for
// failover tests — the EVM re-grants the unit's blocks to the survivors
// once RemoveBU (or PeerDown) runs.
func (b *BU) Kill() {
	b.killed.Store(true)
	b.finish(ErrKilled)
}

func (b *BU) finish(err error) {
	b.mu.Lock()
	b.finishLocked(err)
	b.mu.Unlock()
}

func (b *BU) finishLocked(err error) {
	if !b.running {
		return
	}
	b.running = false
	b.failure = err
	close(b.done)
}

// maybeFinishLocked closes the run once no work remains anywhere: no
// allocation or retry in flight, no block under assembly, and either the
// EVM said the run is over or the local target is reached.
func (b *BU) maybeFinishLocked() {
	if b.allocsOut == 0 && b.timersOut == 0 && len(b.blocks) == 0 &&
		len(b.unacked) == 0 &&
		(b.over || (b.target > 0 && b.built.Load() >= b.target)) {
		b.finishLocked(nil)
	}
}

func (b *BU) handleStart(ctx *device.Context, m *i2o.Message) error {
	if len(m.Payload) < 12 {
		b.finish(i2o.ErrTruncated)
		return i2o.ErrTruncated
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.target = binary.LittleEndian.Uint64(m.Payload)
	b.pipeline = int(binary.LittleEndian.Uint32(m.Payload[8:]))
	b.issued = 0
	b.allocsOut = 0
	b.timersOut = 0
	b.over = false
	b.blocks = make(map[uint32]*blockBuild, b.pipeline)
	b.unacked = make(map[uint64][]byte, b.storeWindow)
	b.runCtx = ctx

	// Register with the EVM (idempotent): the reply carries the shard map
	// version and unblocks the allocation pump.
	req := EncodeRegisterReq(RegisterReq{BU: uint32(b.instance), Node: uint32(ctx.Host.Node())})
	if err := b.requestTagged(ctx, b.evm, XFuncRegister, b.runGen.Load(), req); err != nil {
		b.finishLocked(fmt.Errorf("daq: register: %w", err))
	}
	return nil
}

// requestTagged sends a reply-expected private frame with the given
// transaction context (for correlating replies to runs and blocks).
func (b *BU) requestTagged(ctx *device.Context, target i2o.TID, xfunc uint16, txn uint32, payload []byte) error {
	return ctx.Host.Send(&i2o.Message{
		Flags:              i2o.FlagReplyExpected,
		Priority:           i2o.PriorityNormal,
		Target:             target,
		Initiator:          b.dev.TID(),
		Function:           i2o.FuncPrivate,
		Org:                i2o.OrgXDAQ,
		XFunction:          xfunc,
		TransactionContext: txn,
		Payload:            payload,
	})
}

func (b *BU) handleRegisterReply(ctx *device.Context, m *i2o.Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.running || b.killed.Load() || m.TransactionContext != b.runGen.Load() {
		return nil
	}
	if err := i2o.ReplyError(m); err != nil {
		b.finishLocked(fmt.Errorf("daq: register: %w", err))
		return nil
	}
	rep, err := DecodeRegisterRep(m.Payload)
	if err != nil {
		b.finishLocked(err)
		return nil
	}
	b.shardVer.Store(rep.Version)
	b.pumpLocked(ctx)
	b.maybeFinishLocked()
	return nil
}

// pumpLocked keeps the block-allocation pipeline full.  Each outstanding
// allocation request reserves at least one event against the target, so a
// bounded run never over-asks (with the default one-event blocks the
// reservation is exact — the legacy Start(n, p) contract).
func (b *BU) pumpLocked(ctx *device.Context) {
	for b.allocsOut+b.timersOut+len(b.blocks) < b.pipeline {
		if b.over || (b.target > 0 && b.issued >= b.target) {
			return
		}
		if len(b.writers) > 0 && len(b.unacked) >= b.storeWindow {
			// Storage backpressure: the write window is full, so stop
			// asking the EVM for event grants.  The pump restarts from
			// the write-ack handler as acks drain the window — writer
			// pressure thereby reaches all the way back to the readout.
			return
		}
		if err := b.sendAllocLocked(ctx); err != nil {
			b.finishLocked(fmt.Errorf("daq: allocate request: %w", err))
			return
		}
		b.issued++
	}
}

func (b *BU) sendAllocLocked(ctx *device.Context) error {
	payload := EncodeAllocReq(AllocReq{BU: uint32(b.instance)})
	if err := b.requestTagged(ctx, b.evm, XFuncAllocate, b.runGen.Load(), payload); err != nil {
		return err
	}
	b.allocsOut++
	return nil
}

func (b *BU) handleAllocateReply(ctx *device.Context, m *i2o.Message) error {
	if !m.Flags.Has(i2o.FlagReply) {
		return fmt.Errorf("daq: builder unit does not allocate events")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.running || b.killed.Load() || m.TransactionContext != b.runGen.Load() {
		return nil
	}
	b.allocsOut--
	if err := i2o.ReplyError(m); err != nil {
		b.finishLocked(fmt.Errorf("daq: allocation failed: %w", err))
		return nil
	}
	rep, err := DecodeAllocRep(m.Payload)
	if err != nil {
		b.finishLocked(err)
		return nil
	}
	b.shardVer.Store(rep.Version)
	switch rep.Status {
	case AllocOver:
		b.over = true
	case AllocRetry:
		// The EVM has nothing for us yet (other builders hold blocks that
		// may orphan back).  Re-ask after a beat.
		b.scheduleLocked(func(ctx *device.Context) {
			if b.over {
				return
			}
			if err := b.sendAllocLocked(ctx); err != nil {
				b.finishLocked(fmt.Errorf("daq: allocate retry: %w", err))
			}
		})
	case AllocGrant:
		if uint64(rep.Count) > 1 {
			// A multi-event grant consumes more of the target than the one
			// event the request reserved.
			b.issued += uint64(rep.Count) - 1
		}
		seq := b.blockSeq.Add(1)
		bb := &blockBuild{
			first:       rep.First,
			count:       rep.Count,
			skip:        rep.Skip,
			pendingSrcs: len(b.srcs),
			events:      make([]eventBuild, rep.Count),
		}
		for i := uint32(0); i < rep.Count; i++ {
			if rep.Skip&(1<<i) != 0 {
				bb.events[i].done = true
				bb.doneEvents++
			}
		}
		b.blocks[seq] = bb
		req := FragReq{
			Version: rep.Version,
			BU:      uint32(b.instance),
			First:   rep.First,
			Count:   rep.Count,
			Skip:    rep.Skip,
		}
		payload := EncodeFragReq(req)
		for i, src := range b.srcs {
			if err := b.requestTagged(ctx, src, b.srcFunc, seq<<8|uint32(i), payload); err != nil {
				b.finishLocked(fmt.Errorf("daq: fragment request to %v: %w", src, err))
				return nil
			}
		}
	}
	b.pumpLocked(ctx)
	b.maybeFinishLocked()
	return nil
}

// scheduleLocked arms a retry timer.  The callback runs with the lock
// held, only while the same run is still live.  A pending timer counts
// against the pipeline, so its expiry re-pumps: when retries outnumber the
// pipeline at the last write ack, nothing else is left in flight to do it.
func (b *BU) scheduleLocked(f func(ctx *device.Context)) {
	b.timersOut++
	gen := b.runGen.Load()
	time.AfterFunc(retryDelay, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if gen != b.runGen.Load() {
			return // a newer run owns the state now
		}
		b.timersOut--
		if !b.running || b.killed.Load() {
			return
		}
		f(b.runCtx)
		b.pumpLocked(b.runCtx)
		b.maybeFinishLocked()
	})
}

func (b *BU) handleFragmentReply(ctx *device.Context, m *i2o.Message) error {
	if !m.Flags.Has(i2o.FlagReply) {
		return fmt.Errorf("daq: builder unit serves no fragments")
	}
	seq, srcIdx := m.TransactionContext>>8, int(m.TransactionContext&0xFF)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.running || b.killed.Load() {
		return nil
	}
	bb := b.blocks[seq]
	if bb == nil || srcIdx >= len(b.srcs) {
		return nil // stale reply from a dropped block or an earlier run
	}
	if err := i2o.ReplyError(m); err != nil {
		var rec *i2o.FailRecord
		if errors.As(err, &rec) {
			switch rec.Code {
			case FailStaleShard:
				// Transient: the source's map copy lags ours.  It is
				// refreshing; re-ask shortly with our latest version.
				b.stale.Add(1)
				b.scheduleLocked(func(ctx *device.Context) {
					if b.blocks[seq] != bb {
						return
					}
					req := FragReq{
						Version: b.shardVer.Load(),
						BU:      uint32(b.instance),
						First:   bb.first,
						Count:   bb.count,
						Skip:    bb.skip,
					}
					if err := b.requestTagged(ctx, b.srcs[srcIdx], b.srcFunc, seq<<8|uint32(srcIdx), EncodeFragReq(req)); err != nil {
						b.finishLocked(fmt.Errorf("daq: fragment retry to %v: %w", b.srcs[srcIdx], err))
					}
				})
				return nil
			case FailNotOwner:
				// Permanent: a rebalance changed the slot's owner after
				// our grant.  Return the block to the EVM so it re-grants
				// to the current owner — without the release it would sit
				// in the EVM's in-flight table forever and the run could
				// never drain.
				b.lost.Add(1)
				delete(b.blocks, seq)
				rel := EncodeReleaseNote(ReleaseNote{BU: uint32(b.instance), First: bb.first})
				if err := send(ctx.Host, b.evm, b.dev.TID(), XFuncRelease, i2o.PriorityHigh, rel); err != nil {
					ctx.Host.Logf("daq: block release: %v", err)
				}
				b.pumpLocked(ctx)
				b.maybeFinishLocked()
				return nil
			}
		}
		b.finishLocked(fmt.Errorf("daq: fragment failed: %w", err))
		return nil
	}
	rep, err := DecodeFragRep(m.Payload)
	if err != nil {
		b.finishLocked(err)
		return nil
	}
	if rep.Version > b.shardVer.Load() {
		b.shardVer.Store(rep.Version)
	}
	for _, f := range rep.Frags {
		idx := f.Event - bb.first
		if idx >= uint64(bb.count) {
			continue // decode already bounds-checks; defensive
		}
		ev := &bb.events[idx]
		if ev.done {
			continue
		}
		ev.got++
		ev.bytes += len(f.Data)
		b.bytes.Add(uint64(len(f.Data)))
		if len(f.Data) > 0 && f.Data[0] != FragmentFill(int(f.RU), f.Event) {
			b.corrupt.Add(1)
		}
		if len(b.writers) > 0 {
			// The frame's pool buffer is released after this handler
			// returns; keep a copy for the storage writer.
			ev.frags = append(ev.frags, append([]byte(nil), f.Data...))
		}
		if ev.got >= b.perEvent {
			ev.done = true
			bb.doneEvents++
			b.built.Add(1)
			if b.OnEvent != nil {
				b.OnEvent(f.Event, ev.bytes)
			}
			note := EncodeBuiltNote(BuiltNote{BU: uint32(b.instance), Event: f.Event})
			if err := send(ctx.Host, b.evm, b.dev.TID(), XFuncBuilt, i2o.PriorityLow, note); err != nil {
				ctx.Host.Logf("daq: built notification: %v", err)
			}
			if len(b.writers) > 0 {
				b.storeEventLocked(f.Event, ev)
			}
		}
	}
	bb.pendingSrcs--
	if bb.pendingSrcs > 0 {
		return nil
	}
	// All sources answered for this block.
	if bb.doneEvents != int(bb.count) {
		served := int(bb.count) - bits.OnesCount64(bb.skip)
		b.finishLocked(fmt.Errorf(
			"daq: block %d incomplete: %d of %d events built (%d served)",
			bb.first, bb.doneEvents, bb.count, served))
		return nil
	}
	delete(b.blocks, seq)
	b.pumpLocked(ctx)
	b.maybeFinishLocked()
	return nil
}

// storeEventLocked queues one built event for its stripe's storage
// writer and sends the first attempt.  The payload stays in unacked
// until a durable ack arrives; resends are safe because the writer
// dedups by event id.  Caller holds b.mu.
func (b *BU) storeEventLocked(event uint64, ev *eventBuild) {
	payload := make([]byte, 8, 8+ev.bytes)
	binary.LittleEndian.PutUint64(payload, event)
	for _, f := range ev.frags {
		payload = append(payload, f...)
	}
	b.unacked[event] = payload
	b.sendStoreLocked(event, payload)
	b.armStoreSweepLocked()
}

// sendStoreLocked issues one write transfer.  Send errors are not
// fatal: the resend sweep retries until the ack lands.  Caller holds
// b.mu.
func (b *BU) sendStoreLocked(event uint64, payload []byte) {
	target := b.writers[event%uint64(len(b.writers))]
	id := uint32(b.xferSeq.Add(1))
	if err := chain.SendBytes(b.runCtx.Host, target, b.dev.TID(), storage.XFuncWrite,
		i2o.PriorityBulk, id, payload); err != nil {
		b.runCtx.Host.Logf("daq: store event %d: %v", event, err)
	}
}

// armStoreSweepLocked keeps one resend timer alive while writes await
// acks.  Every sweep re-sends the whole unacked window — it only has
// anything to do when a frame or an ack was lost, and the writers'
// duplicate filter absorbs the rest.  Caller holds b.mu.
func (b *BU) armStoreSweepLocked() {
	if b.sweeping || len(b.unacked) == 0 {
		return
	}
	b.sweeping = true
	gen := b.runGen.Load()
	time.AfterFunc(storeSweepDelay, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.sweeping = false
		if gen != b.runGen.Load() || !b.running || b.killed.Load() {
			return
		}
		for event, payload := range b.unacked {
			b.sendStoreLocked(event, payload)
		}
		b.armStoreSweepLocked()
	})
}

// handleWriteAck drains the storage write window as acks arrive.
func (b *BU) handleWriteAck(ctx *device.Context, m *i2o.Message) error {
	a, err := storage.DecodeWriteAck(m.Payload)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.running || b.killed.Load() {
		return nil
	}
	if _, ok := b.unacked[a.Event]; !ok {
		return nil // stale ack (a resend raced the original)
	}
	switch a.Status {
	case storage.AckStored, storage.AckDup:
		b.stored.Add(1)
		delete(b.unacked, a.Event)
		b.pumpLocked(ctx)
		b.maybeFinishLocked()
	case storage.AckFull:
		// Writer backpressure: retry after a beat, well before the
		// sweep would.  The window entry stays, holding the grant pump.
		b.wstalls.Add(1)
		b.scheduleLocked(func(ctx *device.Context) {
			if payload, ok := b.unacked[a.Event]; ok {
				b.sendStoreLocked(a.Event, payload)
			}
		})
	default:
		b.finishLocked(fmt.Errorf("daq: storage writer refused event %d", a.Event))
	}
	return nil
}
