package daq

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"xdaq/internal/i2o"
)

// The DAQ wire records.  Every multi-field payload the sharded event
// builder exchanges is encoded through this file with explicit bounds
// checks on both sides; FuzzWireRecords asserts decode/encode are exact
// inverses.  All integers are little-endian, matching the I2O frame
// convention.
//
// Event identifiers are 1-based.  Events are grouped into fixed-size
// blocks ("event ranges"): block b covers events [b*R+1, b*R+R] where R
// is the shard map's range size.  A block is the unit of allocation,
// fragment transfer, and shard ownership, so the per-event message costs
// of the flat protocol amortize over R events.

// DAQ-specific failure codes, carried in i2o fail replies.  They live in
// the adapter-specific code space above i2o.FailApplication.
const (
	// FailStaleShard is transient: the replier's shard map is older than
	// the request's (or not yet fetched).  The replier refreshes its map
	// from the EVM; the requester retries shortly.
	FailStaleShard i2o.FailCode = 200

	// FailNotOwner is permanent for the requested block: the shard map
	// assigns it to a different builder unit.  The requester lost the
	// range in a rebalance and must drop it (the new owner rebuilds it).
	FailNotOwner i2o.FailCode = 201
)

// Allocation reply status codes.
const (
	// AllocGrant carries one event block.
	AllocGrant uint8 = 0

	// AllocRetry means the EVM has nothing for this builder right now but
	// the run is not over (other builders still hold outstanding blocks
	// that may orphan back).  Ask again shortly.
	AllocRetry uint8 = 1

	// AllocOver means the run is complete: the event limit is exhausted
	// and no block is outstanding anywhere.
	AllocOver uint8 = 2
)

// FragReq asks a readout unit (XFuncFragment) or an aggregator
// (XFuncSuper) for the fragments of one event block.
type FragReq struct {
	Version uint64 // requester's shard map version
	BU      uint32 // requesting builder unit (shard identity, not TiD)
	First   uint64 // first event id of the block
	Count   uint32 // events in the block (1..64)
	Skip    uint64 // bit i set: event First+i is already built, don't serve it
}

const fragReqLen = 8 + 4 + 8 + 4 + 8

// EncodeFragReq renders r as a frame payload.
func EncodeFragReq(r FragReq) []byte {
	b := make([]byte, fragReqLen)
	binary.LittleEndian.PutUint64(b[0:], r.Version)
	binary.LittleEndian.PutUint32(b[8:], r.BU)
	binary.LittleEndian.PutUint64(b[12:], r.First)
	binary.LittleEndian.PutUint32(b[20:], r.Count)
	binary.LittleEndian.PutUint64(b[24:], r.Skip)
	return b
}

// DecodeFragReq parses a FragReq, rejecting short, oversized, and
// internally inconsistent payloads.
func DecodeFragReq(p []byte) (FragReq, error) {
	var r FragReq
	if len(p) != fragReqLen {
		return r, fmt.Errorf("%w: fragment request of %d bytes, want %d", i2o.ErrTruncated, len(p), fragReqLen)
	}
	r.Version = binary.LittleEndian.Uint64(p[0:])
	r.BU = binary.LittleEndian.Uint32(p[8:])
	r.First = binary.LittleEndian.Uint64(p[12:])
	r.Count = binary.LittleEndian.Uint32(p[20:])
	r.Skip = binary.LittleEndian.Uint64(p[24:])
	if r.First == 0 || r.Count == 0 || r.Count > 64 {
		return r, fmt.Errorf("daq: fragment request block [%d,+%d) out of range", r.First, r.Count)
	}
	if r.Count < 64 && r.Skip>>r.Count != 0 {
		return r, fmt.Errorf("daq: fragment request skip mask %#x wider than count %d", r.Skip, r.Count)
	}
	return r, nil
}

// Fragment is one readout unit's data for one event inside a FragRep.
type Fragment struct {
	RU    uint32 // readout unit instance that produced the data
	Event uint64
	Data  []byte
}

// FragRep answers a FragReq: the fragments of a block, from one RU (one
// fragment per served event) or from an aggregator subtree (a
// super-fragment: every descendant RU's fragment for every served event).
type FragRep struct {
	Version uint64
	First   uint64
	Count   uint32
	Frags   []Fragment
}

const fragRepHdrLen = 8 + 8 + 4 + 4
const fragHdrLen = 4 + 8 + 4

// EncodedFragRepLen returns the encoded size of a reply carrying nfrags
// fragments of dataLen bytes total.
func EncodedFragRepLen(nfrags, dataLen int) int {
	return fragRepHdrLen + nfrags*fragHdrLen + dataLen
}

// AppendFragRepHeader writes the fixed reply header into b, which must
// hold at least fragRepHdrLen bytes, and returns the write cursor.
func AppendFragRepHeader(b []byte, version, first uint64, count, nfrags uint32) int {
	binary.LittleEndian.PutUint64(b[0:], version)
	binary.LittleEndian.PutUint64(b[8:], first)
	binary.LittleEndian.PutUint32(b[16:], count)
	binary.LittleEndian.PutUint32(b[20:], nfrags)
	return fragRepHdrLen
}

// AppendFragment writes one fragment header at b[off:] and returns the
// offset of its data section (the caller fills the data in place) plus
// the cursor past the fragment.
func AppendFragment(b []byte, off int, ru uint32, event uint64, size int) (dataOff, next int) {
	binary.LittleEndian.PutUint32(b[off:], ru)
	binary.LittleEndian.PutUint64(b[off+4:], event)
	binary.LittleEndian.PutUint32(b[off+12:], uint32(size))
	return off + fragHdrLen, off + fragHdrLen + size
}

// DecodeFragRep parses a FragRep.  Fragment data aliases p — callers that
// keep fragments past the frame's lifetime must copy.
func DecodeFragRep(p []byte) (FragRep, error) {
	var r FragRep
	if len(p) < fragRepHdrLen {
		return r, fmt.Errorf("%w: fragment reply of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.Version = binary.LittleEndian.Uint64(p[0:])
	r.First = binary.LittleEndian.Uint64(p[8:])
	r.Count = binary.LittleEndian.Uint32(p[16:])
	nfrags := binary.LittleEndian.Uint32(p[20:])
	if r.First == 0 || r.Count == 0 || r.Count > 64 {
		return r, fmt.Errorf("daq: fragment reply block [%d,+%d) out of range", r.First, r.Count)
	}
	if rem := len(p) - fragRepHdrLen; uint64(nfrags) > uint64(rem)/fragHdrLen {
		return r, fmt.Errorf("%w: %d fragments in %d bytes", i2o.ErrTruncated, nfrags, rem)
	}
	off := fragRepHdrLen
	r.Frags = make([]Fragment, 0, nfrags)
	for i := uint32(0); i < nfrags; i++ {
		if len(p)-off < fragHdrLen {
			return r, fmt.Errorf("%w: fragment %d header", i2o.ErrTruncated, i)
		}
		f := Fragment{
			RU:    binary.LittleEndian.Uint32(p[off:]),
			Event: binary.LittleEndian.Uint64(p[off+4:]),
		}
		n := int(binary.LittleEndian.Uint32(p[off+12:]))
		off += fragHdrLen
		if n < 0 || len(p)-off < n {
			return r, fmt.Errorf("%w: fragment %d data of %d bytes", i2o.ErrTruncated, i, n)
		}
		if f.Event < r.First || f.Event >= r.First+uint64(r.Count) {
			return r, fmt.Errorf("daq: fragment %d for event %d outside block [%d,+%d)", i, f.Event, r.First, r.Count)
		}
		f.Data = p[off : off+n : off+n]
		off += n
		r.Frags = append(r.Frags, f)
	}
	if off != len(p) {
		return r, fmt.Errorf("daq: fragment reply has %d trailing bytes", len(p)-off)
	}
	return r, nil
}

// AllocReq asks the EVM for the next event block.
type AllocReq struct {
	BU uint32
}

const allocReqLen = 4

// EncodeAllocReq renders r as a frame payload.
func EncodeAllocReq(r AllocReq) []byte {
	b := make([]byte, allocReqLen)
	binary.LittleEndian.PutUint32(b, r.BU)
	return b
}

// DecodeAllocReq parses an AllocReq.
func DecodeAllocReq(p []byte) (AllocReq, error) {
	var r AllocReq
	if len(p) != allocReqLen {
		return r, fmt.Errorf("%w: allocation request of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.BU = binary.LittleEndian.Uint32(p)
	return r, nil
}

// AllocRep answers an AllocReq.  First/Count/Skip are meaningful only
// with Status == AllocGrant; Version is always the EVM's current shard
// map version.
type AllocRep struct {
	Status  uint8
	Version uint64
	First   uint64
	Count   uint32
	Skip    uint64
}

const allocRepLen = 1 + 8 + 8 + 4 + 8

// EncodeAllocRep renders r as a frame payload.
func EncodeAllocRep(r AllocRep) []byte {
	b := make([]byte, allocRepLen)
	b[0] = r.Status
	binary.LittleEndian.PutUint64(b[1:], r.Version)
	binary.LittleEndian.PutUint64(b[9:], r.First)
	binary.LittleEndian.PutUint32(b[17:], r.Count)
	binary.LittleEndian.PutUint64(b[21:], r.Skip)
	return b
}

// DecodeAllocRep parses an AllocRep.
func DecodeAllocRep(p []byte) (AllocRep, error) {
	var r AllocRep
	if len(p) != allocRepLen {
		return r, fmt.Errorf("%w: allocation reply of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.Status = p[0]
	r.Version = binary.LittleEndian.Uint64(p[1:])
	r.First = binary.LittleEndian.Uint64(p[9:])
	r.Count = binary.LittleEndian.Uint32(p[17:])
	r.Skip = binary.LittleEndian.Uint64(p[21:])
	if r.Status > AllocOver {
		return r, fmt.Errorf("daq: allocation status %d unknown", r.Status)
	}
	if r.Status == AllocGrant {
		if r.First == 0 || r.Count == 0 || r.Count > 64 {
			return r, fmt.Errorf("daq: allocation block [%d,+%d) out of range", r.First, r.Count)
		}
		if r.Count < 64 && r.Skip>>r.Count != 0 {
			return r, fmt.Errorf("daq: allocation skip mask %#x wider than count %d", r.Skip, r.Count)
		}
		if bits.OnesCount64(r.Skip) == int(r.Count) {
			return r, fmt.Errorf("daq: allocation grants fully built block %d", r.First)
		}
	}
	return r, nil
}

// RegisterReq announces a builder unit to the EVM before its first
// allocation; the EVM adds it to the shard map.  Node lets the EVM evict
// every builder of a peer the health monitor declares down.
type RegisterReq struct {
	BU   uint32
	Node uint32
}

const registerReqLen = 8

// EncodeRegisterReq renders r as a frame payload.
func EncodeRegisterReq(r RegisterReq) []byte {
	b := make([]byte, registerReqLen)
	binary.LittleEndian.PutUint32(b, r.BU)
	binary.LittleEndian.PutUint32(b[4:], r.Node)
	return b
}

// DecodeRegisterReq parses a RegisterReq.
func DecodeRegisterReq(p []byte) (RegisterReq, error) {
	var r RegisterReq
	if len(p) != registerReqLen {
		return r, fmt.Errorf("%w: register request of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.BU = binary.LittleEndian.Uint32(p)
	r.Node = binary.LittleEndian.Uint32(p[4:])
	return r, nil
}

// RegisterRep acknowledges a registration with the current map version.
type RegisterRep struct {
	Version uint64
}

const registerRepLen = 8

// EncodeRegisterRep renders r as a frame payload.
func EncodeRegisterRep(r RegisterRep) []byte {
	b := make([]byte, registerRepLen)
	binary.LittleEndian.PutUint64(b, r.Version)
	return b
}

// DecodeRegisterRep parses a RegisterRep.
func DecodeRegisterRep(p []byte) (RegisterRep, error) {
	var r RegisterRep
	if len(p) != registerRepLen {
		return r, fmt.Errorf("%w: register reply of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.Version = binary.LittleEndian.Uint64(p)
	return r, nil
}

// BuiltNote is the fire-and-forget completion notification for one event.
type BuiltNote struct {
	BU    uint32
	Event uint64
}

const builtNoteLen = 12

// EncodeBuiltNote renders r as a frame payload.
func EncodeBuiltNote(r BuiltNote) []byte {
	b := make([]byte, builtNoteLen)
	binary.LittleEndian.PutUint32(b, r.BU)
	binary.LittleEndian.PutUint64(b[4:], r.Event)
	return b
}

// DecodeBuiltNote parses a BuiltNote.
func DecodeBuiltNote(p []byte) (BuiltNote, error) {
	var r BuiltNote
	if len(p) != builtNoteLen {
		return r, fmt.Errorf("%w: built note of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.BU = binary.LittleEndian.Uint32(p)
	r.Event = binary.LittleEndian.Uint64(p[4:])
	if r.Event == 0 {
		return r, fmt.Errorf("daq: built note for event 0")
	}
	return r, nil
}

// ReleaseNote returns a granted block to the EVM: the holder hit a
// permanent not-owner fence (a rebalance changed the slot's owner after
// the grant was issued but before the fragments were fetched), so the
// block must be re-granted to whoever owns the slot now.  Without it the
// block would sit in the EVM's in-flight table forever — never built,
// never re-queued — and the run could not drain.
type ReleaseNote struct {
	BU    uint32
	First uint64 // first event of the granted block being returned
}

const releaseNoteLen = 12

// EncodeReleaseNote renders r as a frame payload.
func EncodeReleaseNote(r ReleaseNote) []byte {
	b := make([]byte, releaseNoteLen)
	binary.LittleEndian.PutUint32(b, r.BU)
	binary.LittleEndian.PutUint64(b[4:], r.First)
	return b
}

// DecodeReleaseNote parses a ReleaseNote.
func DecodeReleaseNote(p []byte) (ReleaseNote, error) {
	var r ReleaseNote
	if len(p) != releaseNoteLen {
		return r, fmt.Errorf("%w: release note of %d bytes", i2o.ErrTruncated, len(p))
	}
	r.BU = binary.LittleEndian.Uint32(p)
	r.First = binary.LittleEndian.Uint64(p[4:])
	if r.First == 0 {
		return r, fmt.Errorf("daq: release note for event 0")
	}
	return r, nil
}
