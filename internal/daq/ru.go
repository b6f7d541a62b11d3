package daq

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// DefaultFragmentSize is the synthetic fragment size when none is
// configured (2 KB, a typical CMS readout fragment).
const DefaultFragmentSize = 2048

// RU is a readout unit.  The real system buffers detector data arriving
// over custom readout links; here the fragment for an event is
// synthesized deterministically on request (the substitution recorded in
// DESIGN.md), which preserves the communication pattern — the part the
// paper is about — while removing the detector.
//
// Requests arrive as FragReq records covering a whole event block; the
// reply batches one fragment per served event.  When wired to an EVM via
// SetEVM the unit fences on the shard map: a request carrying a newer map
// version than the local copy answers FailStaleShard (transient — the RU
// refreshes its map and the builder retries), and a request for a block
// the local map assigns to a different builder answers FailNotOwner, so a
// stale builder can never be fed events that now belong to someone else.
type RU struct {
	dev      *device.Device
	instance int
	size     atomic.Int64
	served   atomic.Uint64 // events served (not requests)
	stale    atomic.Uint64 // requests fenced as stale
	refused  atomic.Uint64 // requests fenced as not-owner

	evm i2o.TID // i2o.TIDNone: fence disabled (flat legacy wiring)

	mu       sync.Mutex
	shard    *ShardMap
	fetchOut bool
}

// NewRU creates readout unit `instance` serving fragments of fragSize
// bytes (DefaultFragmentSize when <= 0).  The size is reconfigurable at
// runtime through the "fragsize" parameter.
func NewRU(instance, fragSize int) *RU {
	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	r := &RU{instance: instance, evm: i2o.TIDNone}
	r.size.Store(int64(fragSize))
	r.dev = device.New(RUClass, instance)
	r.dev.OnPlugged = func(ctx *device.Context) error {
		registerRUMetrics(ctx, r)
		return nil
	}
	r.dev.Params().Set("fragsize", int64(fragSize))
	r.dev.Params().OnSet(func(changed []i2o.Param) {
		for _, p := range changed {
			if p.Key == "fragsize" {
				if n, ok := p.Value.(int64); ok && n > 0 {
					r.size.Store(n)
				}
			}
		}
	})
	r.dev.Bind(XFuncFragment, r.handleFragment)
	r.dev.Bind(XFuncShardMap, r.handleShardMap)
	return r
}

// Device returns the module to plug into an executive.
func (r *RU) Device() *device.Device { return r.dev }

// SetEVM enables the shard fence: the readout unit lazily fetches the
// shard map from the EVM at evm and refuses requests that disagree with
// it.  Without it the unit serves every request (the flat wiring the
// original tests and xdaqctl use).  Must precede serving.
func (r *RU) SetEVM(evm i2o.TID) { r.evm = evm }

// Served returns how many event fragments were sent.
func (r *RU) Served() uint64 { return r.served.Load() }

// Stale returns how many requests were fenced for carrying a newer shard
// map version than the local copy.
func (r *RU) Stale() uint64 { return r.stale.Load() }

// Refused returns how many requests were fenced because the local map
// assigns the block to a different builder.
func (r *RU) Refused() uint64 { return r.refused.Load() }

// fence checks req against the local shard map.  It returns a nil message
// to serve, or a fail reply to send instead.  A stale local map triggers
// an asynchronous refresh from the EVM.
func (r *RU) fence(ctx *device.Context, m *i2o.Message, req FragReq) *i2o.Message {
	if r.evm == i2o.TIDNone {
		return nil
	}
	r.mu.Lock()
	shard := r.shard
	needFetch := shard == nil || req.Version > shard.Version
	doFetch := needFetch && !r.fetchOut
	if doFetch {
		r.fetchOut = true
	}
	r.mu.Unlock()
	if doFetch {
		if err := request(ctx.Host, r.evm, r.dev.TID(), XFuncShardMap, i2o.PriorityHigh, nil); err != nil {
			ctx.Host.Logf("daq: ru %d shard map fetch: %v", r.instance, err)
			r.mu.Lock()
			r.fetchOut = false
			r.mu.Unlock()
		}
	}
	if needFetch {
		r.stale.Add(1)
		return i2o.NewFailReply(m, FailStaleShard, "shard map behind request")
	}
	if owner, ok := shard.Owner(req.First); !ok || owner != req.BU {
		r.refused.Add(1)
		return i2o.NewFailReply(m, FailNotOwner, "block owned by another builder")
	}
	return nil
}

// handleShardMap installs map updates: replies to our own fetches and
// one-way pushes from the EVM on rebalances.
func (r *RU) handleShardMap(ctx *device.Context, m *i2o.Message) error {
	isReply := m.Flags.Has(i2o.FlagReply)
	if !isReply && m.Flags.Has(i2o.FlagReplyExpected) {
		return fmt.Errorf("daq: readout unit serves no shard maps")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if isReply {
		r.fetchOut = false
		if err := i2o.ReplyError(m); err != nil {
			return nil // transient; the next stale request refetches
		}
	}
	shard, err := DecodeShardMap(m.Payload)
	if err != nil {
		return err
	}
	if r.shard == nil || shard.Version > r.shard.Version {
		r.shard = shard
	}
	return nil
}

func (r *RU) handleFragment(ctx *device.Context, m *i2o.Message) error {
	req, err := DecodeFragReq(m.Payload)
	if err != nil {
		return err
	}
	if !m.Flags.Has(i2o.FlagReplyExpected) {
		return nil
	}
	if fail := r.fence(ctx, m, req); fail != nil {
		return ctx.Host.Send(fail)
	}
	size := int(r.size.Load())
	serve := make([]uint64, 0, req.Count)
	for i := uint32(0); i < req.Count; i++ {
		if req.Skip&(1<<i) == 0 {
			serve = append(serve, req.First+uint64(i))
		}
	}
	buf, err := ctx.Host.Alloc(EncodedFragRepLen(len(serve), len(serve)*size))
	if err != nil {
		return err
	}
	body := buf.Bytes()
	version := req.Version
	r.mu.Lock()
	if r.shard != nil {
		version = r.shard.Version
	}
	r.mu.Unlock()
	off := AppendFragRepHeader(body, version, req.First, req.Count, uint32(len(serve)))
	for _, event := range serve {
		dataOff, next := AppendFragment(body, off, uint32(r.instance), event, size)
		fill := FragmentFill(r.instance, event)
		for i := dataOff; i < next; i++ {
			body[i] = fill
		}
		off = next
	}
	rep := i2o.NewReply(m)
	rep.Payload = body
	rep.AttachBuffer(buf)
	if err := ctx.Host.Send(rep); err != nil {
		return err
	}
	r.served.Add(uint64(len(serve)))
	return nil
}
