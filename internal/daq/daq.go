// Package daq implements the paper's motivating application domain: a
// distributed data acquisition event builder in the style of the CMS
// experiment the XDAQ framework was built for.
//
// Four device classes cooperate:
//
//   - EVM, the event manager: owns the versioned shard map assigning
//     event-range blocks to builder units, grants blocks on request, and
//     accounts for completed events — rebalancing the map when a builder
//     is removed so every event is still built exactly once.
//   - RU, a readout unit: holds (here: synthesizes) one detector
//     fragment per event and serves whole blocks of them on request,
//     fencing requests that disagree with its shard map copy.
//   - Aggregator: an intermediate stage absorbing the fan-in of a bounded
//     set of RUs (or deeper aggregators), merging their block replies
//     into one super-fragment — the tree topology that takes a builder
//     from O(RUs) conversations per event to O(log RUs).
//   - BU, a builder unit: registers with the EVM, requests event blocks,
//     collects every RU's fragment for each event (directly or through
//     aggregator roots), verifies and counts the built events.
//
// True to the paper's event-based processing model (§3.2), every unit is
// a state machine driven entirely by message arrival: it never blocks for
// a reply.  Requests carry FlagReplyExpected; the replies come back as
// ordinary private frames into the same bound handlers, and the next step
// of the protocol fires from there.  All multi-field payloads are the
// bounds-checked records of wire.go.
package daq

import (
	"xdaq/internal/i2o"
)

// Device class names.
const (
	EVMClass = "daq.evm"
	RUClass  = "daq.ru"
	BUClass  = "daq.bu"
)

// Private function codes; 5 is unassigned.  (AggClass lives in
// aggregator.go.)
const (
	// XFuncAllocate (to EVM): request the next event block.  Payload:
	// AllocReq; reply: AllocRep (grant, retry, or run-over).
	XFuncAllocate uint16 = 1

	// XFuncBuilt (to EVM): one-way notification that one event was built.
	// Payload: BuiltNote.
	XFuncBuilt uint16 = 2

	// XFuncFragment (to RU): request the fragments of one event block.
	// Payload: FragReq; reply: FragRep (one fragment per served event), or
	// a fail reply with FailStaleShard/FailNotOwner from the shard fence.
	XFuncFragment uint16 = 3

	// XFuncStart (to BU, self-addressed): kick off building.  Payload:
	// uint64 number of events (0 = until the EVM runs dry), uint32
	// pipeline depth in event blocks.
	XFuncStart uint16 = 4

	// XFuncSuper (to aggregator): request the super-fragment of one event
	// block — every descendant RU's fragment for every served event.
	// Payload: FragReq; reply: FragRep.
	XFuncSuper uint16 = 6

	// XFuncRegister (to EVM): a builder unit announces itself before its
	// first allocation; the EVM adds it to the shard map.  Payload:
	// RegisterReq; reply: RegisterRep.
	XFuncRegister uint16 = 7

	// XFuncShardMap (to EVM): fetch the current shard map; the asker is
	// recorded as a subscriber and receives one-way pushes (same code, no
	// reply expected) on every later version bump.
	XFuncShardMap uint16 = 8

	// XFuncRelease (to EVM): one-way return of a granted block the holder
	// cannot finish — a readout unit refused it as not-owner after a
	// rebalance overtook the grant.  The EVM re-queues it for the current
	// slot owner.  Payload: ReleaseNote.
	XFuncRelease uint16 = 9
)

// FragmentFill returns the fill byte of the fragment of event on the
// given readout unit; builder units verify it on receipt.
func FragmentFill(ruInstance int, event uint64) byte {
	return byte(event*2654435761 + uint64(ruInstance)*40503 + 17)
}

// send fires one private frame (no reply expected).
func send(host hostAPI, target, initiator i2o.TID, xfunc uint16, prio i2o.Priority, payload []byte) error {
	return host.Send(&i2o.Message{
		Priority:  prio,
		Target:    target,
		Initiator: initiator,
		Function:  i2o.FuncPrivate,
		Org:       i2o.OrgXDAQ,
		XFunction: xfunc,
		Payload:   payload,
	})
}

// request fires one private frame with a reply expected; the reply comes
// back asynchronously into the initiator's handler for the same xfunc.
func request(host hostAPI, target, initiator i2o.TID, xfunc uint16, prio i2o.Priority, payload []byte) error {
	return host.Send(&i2o.Message{
		Flags:     i2o.FlagReplyExpected,
		Priority:  prio,
		Target:    target,
		Initiator: initiator,
		Function:  i2o.FuncPrivate,
		Org:       i2o.OrgXDAQ,
		XFunction: xfunc,
		Payload:   payload,
	})
}

// hostAPI is the slice of device.Host the helpers need (kept narrow so
// tests can fake it).
type hostAPI interface {
	Send(m *i2o.Message) error
}
