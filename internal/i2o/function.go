package i2o

import "fmt"

// Function is an I2O function code: the operation a message frame requests.
// Codes below 0x80 are utility class codes, 0x80-0xFE are executive and
// device class codes, and 0xFF marks a private frame whose operation is
// identified by the (OrgID, XFunction) pair in the private extension.
type Function uint8

// Utility function codes.  Every device module must implement the utility
// interface so that it can be configured and inspected uniformly (§3.3 of
// the paper: executive + utility + device interface make a DDM).
const (
	// UtilNOP does nothing; it is answered with an empty reply and is used
	// by transports and tests as a liveness check.
	UtilNOP Function = 0x00

	// UtilAbort asks a device to abandon the transaction named by the
	// frame's TransactionContext.
	UtilAbort Function = 0x01

	// UtilParamsSet writes device parameters.  The payload is an encoded
	// parameter list (see param.go).
	UtilParamsSet Function = 0x05

	// UtilParamsGet reads device parameters.  The payload names the keys;
	// the reply carries the encoded values.
	UtilParamsGet Function = 0x06

	// UtilEventRegister subscribes the initiator to unsolicited event
	// notifications from the target device (timer expirations, state
	// changes).
	UtilEventRegister Function = 0x13

	// UtilEventAck acknowledges an event notification.
	UtilEventAck Function = 0x14
)

// Executive function codes.  These are addressed to the executive device
// (TIDExecutive) or broadcast by it to change the operational state of the
// IOP and its modules.
const (
	// ExecStatusGet asks for the executive status block (state, module
	// count, queue depths).
	ExecStatusGet Function = 0xA0

	// ExecOutboundInit initializes the outbound queue of the messaging
	// instance; sent by the host during IOP bring-up.
	ExecOutboundInit Function = 0xA1

	// ExecHrtGet reads the hardware resource table (the set of registered
	// devices and their TiDs).
	ExecHrtGet Function = 0xA8

	// ExecSysTabSet installs the system table: the mapping from remote IOP
	// numbers to peer transport routes, enabling peer operation.
	ExecSysTabSet Function = 0xA3

	// ExecSysEnable moves the IOP (or a single device, when targeted at a
	// device TiD) to the OPERATIONAL state.
	ExecSysEnable Function = 0xD1

	// ExecSysQuiesce moves the IOP or device to the READY (quiesced)
	// state: frames keep queueing but are no longer dispatched.
	ExecSysQuiesce Function = 0xC3

	// ExecSysClear resets queues and statistics without unloading modules.
	ExecSysClear Function = 0xC4

	// ExecPlugin loads a device module into the running executive and is
	// answered with the assigned TiD.  The plugin method is not defined by
	// I2O; the paper adds it for dynamic module download (§4).
	ExecPlugin Function = 0xE0

	// ExecUnplug removes a previously plugged device module.
	ExecUnplug Function = 0xE1

	// ExecTimerSet arms an executive core timer; expiry is delivered as a
	// UtilEventAck-able private event frame to the initiator.
	ExecTimerSet Function = 0xE2

	// ExecTimerCancel disarms a timer set with ExecTimerSet.
	ExecTimerCancel Function = 0xE3

	// ExecTraceGet controls and reads the executive's frame tracer.  The
	// request may carry "enable" and "reset" parameters; the reply carries
	// the ring contents.  Not defined by I2O; added for the system
	// management dimension, like ExecPlugin.
	ExecTraceGet Function = 0xE4

	// ExecMetricsGet reads the node's metrics registry: the reply carries
	// an encoded parameter list with one entry per counter and gauge, and
	// flattened count/sum/quantile rows per histogram.  An optional
	// "prefix" parameter in the request restricts the reply to matching
	// names.  Not defined by I2O; added so any node can scrape any other
	// node's operational counters over ordinary message frames.
	ExecMetricsGet Function = 0xE5

	// ExecPing is the liveness probe: an empty request answered with an
	// empty reply by the executive self device.  The health monitor sends
	// it at urgent priority over the configured peer transport route, so a
	// successful round trip proves the route, the remote agent and the
	// remote dispatch loop are all alive.  Not defined by I2O.
	ExecPing Function = 0xE6

	// ExecHealthGet reads the node's peer-liveness report: one parameter
	// row per monitored peer (state, consecutive failures, current route).
	// Nodes without a health monitor answer with a "monitor=off" row.  Not
	// defined by I2O.
	ExecHealthGet Function = 0xE7

	// ExecJoin is the cluster bootstrap rendezvous: a joining executive
	// sends its member record (identity, listen address, shared-memory
	// directory, exported device table) to any current member and the
	// reply carries the full membership list.  With an "op=leave"
	// parameter it is the graceful-departure notification instead, sent
	// fire-and-forget to every member.  Not defined by I2O; see
	// doc/deployment.md.
	ExecJoin Function = 0xE8

	// ExecPeerList pushes the membership list (epoch + one record per
	// member) to a peer after a change.  Membership sync is additive:
	// receivers adopt members they have not seen, and removals travel
	// only as explicit ExecJoin leaves or local health evictions.  Not
	// defined by I2O.
	ExecPeerList Function = 0xE9

	// ExecPolicyGet reads the node's control-plane report: the autopilot's
	// policy identity, tick count, and decision log, one parameter row per
	// decision.  Nodes without an autopilot answer with an "autopilot=off"
	// row, mirroring ExecHealthGet's monitor=off convention.  Not defined
	// by I2O.
	ExecPolicyGet Function = 0xEA
)

// FuncPrivate marks a private frame: the operation is identified by the
// (OrgID, XFunction) pair carried in the private extension header word, and
// the semantics are defined by the application device class (figure 5:
// "Function=FFh if it is private. Then XFunctionCode is interpreted").
const FuncPrivate Function = 0xFF

// IsPrivate reports whether f requires the private extension header.
func (f Function) IsPrivate() bool { return f == FuncPrivate }

// IsExecutive reports whether f is one of the executive control codes.
func (f Function) IsExecutive() bool {
	switch f {
	case ExecStatusGet, ExecOutboundInit, ExecHrtGet, ExecSysTabSet,
		ExecSysEnable, ExecSysQuiesce, ExecSysClear,
		ExecPlugin, ExecUnplug, ExecTimerSet, ExecTimerCancel, ExecTraceGet,
		ExecMetricsGet, ExecPing, ExecHealthGet, ExecJoin, ExecPeerList,
		ExecPolicyGet:
		return true
	}
	return false
}

var functionNames = map[Function]string{
	UtilNOP:           "UtilNOP",
	UtilAbort:         "UtilAbort",
	UtilParamsSet:     "UtilParamsSet",
	UtilParamsGet:     "UtilParamsGet",
	UtilEventRegister: "UtilEventRegister",
	UtilEventAck:      "UtilEventAck",
	ExecStatusGet:     "ExecStatusGet",
	ExecOutboundInit:  "ExecOutboundInit",
	ExecHrtGet:        "ExecHrtGet",
	ExecSysTabSet:     "ExecSysTabSet",
	ExecSysEnable:     "ExecSysEnable",
	ExecSysQuiesce:    "ExecSysQuiesce",
	ExecSysClear:      "ExecSysClear",
	ExecPlugin:        "ExecPlugin",
	ExecUnplug:        "ExecUnplug",
	ExecTimerSet:      "ExecTimerSet",
	ExecTimerCancel:   "ExecTimerCancel",
	ExecTraceGet:      "ExecTraceGet",
	ExecMetricsGet:    "ExecMetricsGet",
	ExecPing:          "ExecPing",
	ExecHealthGet:     "ExecHealthGet",
	ExecJoin:          "ExecJoin",
	ExecPeerList:      "ExecPeerList",
	ExecPolicyGet:     "ExecPolicyGet",
	FuncPrivate:       "Private",
}

func (f Function) String() string {
	if s, ok := functionNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Function(%#02x)", uint8(f))
}
