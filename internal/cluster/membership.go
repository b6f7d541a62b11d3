// Cluster bootstrap and membership: the protocol that lets executives in
// separate OS processes find each other, modeled on the single-system-
// image management layer of the Cluster Computing White Paper (PAPERS.md)
// grafted onto the paper's I2O message fabric.
//
// The protocol is deliberately small:
//
//   - Join (ExecJoin, request/reply).  A joining executive sends its
//     member record — identity, TCP listen address, optional shm ring
//     directory, and its exported device table (the TiD exchange) — to
//     any current member (the seed rendezvous).  The receiver wires a
//     route to the joiner, adopts it, bumps its membership epoch, pushes
//     the updated list to every other member, and replies with the full
//     list.  One round trip bootstraps a complete node.
//
//   - Peer list push (ExecPeerList, fire-and-forget).  Membership sync is
//     additive: receivers adopt members and exported devices they have
//     not seen and never remove anyone on a push.  Removal travels only
//     as an explicit leave or as a local health eviction, so two
//     concurrent joins rendezvousing at different members can never
//     erase each other — the lists merge.
//
//   - Leave (ExecJoin with op=leave, an acknowledged request to every
//     member — the leaver tears its transports down right after, so an
//     unacknowledged notification could die in a send ring).  Receivers
//     drop the member and mark the peer down.  A member that misses the
//     leave keeps a stale entry until its health monitor declares the
//     peer down and evicts it (Evict), which is also the only path for
//     crashed members — the health-integrated leave-on-down.  A peer
//     that recovers (health Up) is re-admitted from its tombstone
//     (Revive).
//
// Transport wiring stays out of this package: the owner supplies a Wire
// callback that connects the fabric to a learned member (dial its TCP
// address, map its shm rings) and returns the route name for the system
// table.  In-process clusters (tests, the chaos harness) pass no Wire and
// reuse whatever routes already exist.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/tid"
)

// DeviceExport is one row of a member's exported device table: a device
// class instance other members may Discover-free address through a proxy.
type DeviceExport struct {
	Class    string
	Instance int
	TID      i2o.TID
}

// Member is one executive's membership record.
type Member struct {
	// Node is the IOP identity.
	Node i2o.NodeID

	// Name tags logs and status output.
	Name string

	// Addr is the member's TCP listen address ("" for in-process
	// members).
	Addr string

	// Shm is the member's shared-memory ring directory; members that
	// share it exchange frames over mmap'd rings instead of sockets.
	Shm string

	// Devices is the exported device table carried by the join exchange.
	Devices []DeviceExport
}

// MembershipConfig configures a Membership manager.
type MembershipConfig struct {
	// Exec is the owning executive.  Required.
	Exec *executive.Executive

	// Self is this node's member record.  Node must be zero or match the
	// executive's.  Nil Devices track the executive's exported device
	// table live (re-snapshotted whenever the record is shared with a
	// peer); a non-nil slice pins the advertised set.
	Self Member

	// Wire connects the transport fabric to a newly learned member and
	// returns the peer-transport route name for the system table.  Nil
	// means routes already exist (in-process clusters).
	Wire func(Member) (route string, err error)

	// Unwire, when set, is told when a member leaves or is evicted.
	Unwire func(Member)

	// RequestTimeout bounds the join round trip when the caller's
	// context has no deadline; defaults to 5s.
	RequestTimeout time.Duration

	// Logf sinks membership diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Membership runs the bootstrap/membership protocol for one executive.
type Membership struct {
	exec *executive.Executive
	cfg  MembershipConfig

	// pinned: the owner supplied an explicit device export list, so the
	// local record is never re-snapshotted from the executive table.
	pinned bool

	mu      sync.Mutex
	members map[i2o.NodeID]Member
	tomb    map[i2o.NodeID]Member
	epoch   uint64
	changed chan struct{}
}

// ExportedDevices snapshots the executive's local device table rows worth
// advertising to peers: everything except the executive itself, transport
// devices ("pt.*") and internal proxy classes ("@*").
func ExportedDevices(e *executive.Executive) []DeviceExport {
	var out []DeviceExport
	for _, entry := range e.Table().Entries() {
		if entry.Kind != tid.Local {
			continue
		}
		if entry.Class == "executive" || strings.HasPrefix(entry.Class, "pt.") || strings.HasPrefix(entry.Class, "@") {
			continue
		}
		out = append(out, DeviceExport{Class: entry.Class, Instance: entry.Instance, TID: entry.TID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// NewMembership starts a manager whose only member is the local node and
// installs it as the executive's ExecJoin/ExecPeerList handler.  Call
// Join to enter an existing cluster through any live member.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("cluster: MembershipConfig.Exec is required")
	}
	if cfg.Self.Node == 0 {
		cfg.Self.Node = cfg.Exec.Node()
	}
	if cfg.Self.Node != cfg.Exec.Node() {
		return nil, fmt.Errorf("cluster: Self.Node %v does not match executive node %v", cfg.Self.Node, cfg.Exec.Node())
	}
	pinned := cfg.Self.Devices != nil
	if !pinned {
		cfg.Self.Devices = ExportedDevices(cfg.Exec)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	ms := &Membership{
		exec:    cfg.Exec,
		cfg:     cfg,
		pinned:  pinned,
		members: map[i2o.NodeID]Member{cfg.Self.Node: cfg.Self},
		tomb:    make(map[i2o.NodeID]Member),
		epoch:   1,
		changed: make(chan struct{}),
	}
	cfg.Exec.SetMembershipHandler(ms.handle)
	return ms, nil
}

func (ms *Membership) logf(format string, args ...any) {
	if ms.cfg.Logf != nil {
		ms.cfg.Logf(format, args...)
	}
}

// refreshSelfLocked re-snapshots the local exported device table so the
// record shared with peers covers devices plugged after the manager
// started.  Caller holds ms.mu.
func (ms *Membership) refreshSelfLocked() Member {
	if !ms.pinned {
		ms.cfg.Self.Devices = ExportedDevices(ms.exec)
	}
	ms.members[ms.cfg.Self.Node] = ms.cfg.Self
	return ms.cfg.Self
}

// Epoch returns the local membership epoch: it rises on every local
// change and to the highest epoch seen on a push.
func (ms *Membership) Epoch() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.epoch
}

// Members returns the current membership sorted by node id.
func (ms *Membership) Members() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Lookup returns one member's record.
func (ms *Membership) Lookup(node i2o.NodeID) (Member, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[node]
	return m, ok
}

// WaitReady blocks until the membership holds at least n members.
func (ms *Membership) WaitReady(ctx context.Context, n int) error {
	for {
		ms.mu.Lock()
		have := len(ms.members)
		ch := ms.changed
		ms.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %d members (have %d): %w", n, have, ctx.Err())
		case <-ch:
		}
	}
}

// Join enters the cluster through seed (the rendezvous member): one
// ExecJoin round trip carrying our record, answered with the full
// membership list.  The caller must already have a route to seed (for
// remote seeds, tcp.Transport.Identify establishes one from an address).
func (ms *Membership) Join(ctx context.Context, seed i2o.NodeID) error {
	if seed == ms.cfg.Self.Node {
		return fmt.Errorf("cluster: cannot join through self")
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ms.cfg.RequestTimeout)
		defer cancel()
	}
	ms.mu.Lock()
	self := ms.refreshSelfLocked()
	ms.mu.Unlock()
	params := encodeJoinRequest("join", self)
	rep, err := ms.request(ctx, seed, i2o.ExecJoin, params)
	if err != nil {
		return fmt.Errorf("cluster: join via node %v: %w", seed, err)
	}
	defer rep.Recycle()
	epoch, list, err := decodeMemberList(rep.Payload)
	if err != nil {
		return fmt.Errorf("cluster: join reply: %w", err)
	}
	ms.merge(epoch, list)
	return nil
}

// Leave announces a graceful departure to every other member.  Each
// notification is an acknowledged request, not a push: a leaver usually
// tears its transports down the moment Leave returns, and a
// fire-and-forget frame still queued in a send ring at that point is
// silently lost — leaving peers a stale member they must health-evict.
// A member that cannot be reached within ctx is skipped (reported in
// the returned error) and falls back to health eviction on its side.
// The local membership collapses back to just self.
func (ms *Membership) Leave(ctx context.Context) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ms.cfg.RequestTimeout)
		defer cancel()
	}
	params := encodeJoinRequest("leave", ms.cfg.Self)
	ms.mu.Lock()
	others := make([]Member, 0, len(ms.members)-1)
	for node, m := range ms.members {
		if node != ms.cfg.Self.Node {
			others = append(others, m)
		}
	}
	ms.members = map[i2o.NodeID]Member{ms.cfg.Self.Node: ms.cfg.Self}
	ms.epoch++
	ms.notifyLocked()
	ms.mu.Unlock()

	var firstErr error
	for _, m := range others {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep, err := ms.request(ctx, m.Node, i2o.ExecJoin, params)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: leave notify %v: %w", m.Node, err)
			}
			continue
		}
		rep.Recycle()
	}
	return firstErr
}

// Evict removes a member declared dead by the health layer.  The record
// is kept as a tombstone so a recovered peer can be re-admitted by
// Revive without a new join exchange.
func (ms *Membership) Evict(node i2o.NodeID) {
	ms.remove(node, "evicted (health down)")
}

// Revive re-admits a tombstoned member after its health recovered.
func (ms *Membership) Revive(node i2o.NodeID) {
	ms.mu.Lock()
	m, ok := ms.tomb[node]
	if !ok {
		ms.mu.Unlock()
		return
	}
	delete(ms.tomb, node)
	ms.members[node] = m
	ms.epoch++
	ms.notifyLocked()
	ms.mu.Unlock()
	ms.logf("cluster: member %v revived", node)
}

// Close uninstalls the executive hooks.  It does not announce a leave;
// call Leave first for a graceful departure.
func (ms *Membership) Close() {
	ms.exec.SetMembershipHandler(nil)
}

// handle is the executive's ExecJoin/ExecPeerList hook.
func (ms *Membership) handle(fn i2o.Function, params []i2o.Param) ([]i2o.Param, error) {
	switch fn {
	case i2o.ExecJoin:
		op, m, err := decodeJoinRequest(params)
		if err != nil {
			return nil, err
		}
		switch op {
		case "join":
			return ms.admit(m)
		case "leave":
			ms.remove(m.Node, "left")
			return nil, nil
		default:
			return nil, fmt.Errorf("cluster: unknown join op %q", op)
		}
	case i2o.ExecPeerList:
		epoch, list, err := decodeMemberListParams(params)
		if err != nil {
			return nil, err
		}
		ms.merge(epoch, list)
		return nil, nil
	}
	return nil, fmt.Errorf("cluster: unexpected function %v", fn)
}

// admit handles one join request: adopt the member, push the new list to
// everyone else, reply with the full list.
func (ms *Membership) admit(m Member) ([]i2o.Param, error) {
	if m.Node == ms.cfg.Self.Node {
		return nil, fmt.Errorf("cluster: node %v tried to join itself", m.Node)
	}
	ms.mu.Lock()
	ms.refreshSelfLocked()
	_, known := ms.members[m.Node]
	if !known {
		delete(ms.tomb, m.Node) // a rejoin supersedes any tombstone
		if err := ms.adoptLocked(m); err != nil {
			ms.mu.Unlock()
			return nil, err
		}
		ms.epoch++
		ms.notifyLocked()
	} else {
		// A rejoin refreshes the record (the devices may differ).
		ms.members[m.Node] = m
	}
	epoch := ms.epoch
	list := ms.membersLocked()
	ms.mu.Unlock()

	ms.logf("cluster: member %v (%s) joined via us, %d members at epoch %d", m.Node, m.Name, len(list), epoch)
	// Propagate asynchronously; the joiner gets the list in the reply.
	go ms.broadcast(epoch, list, m.Node)
	return encodeMemberList(epoch, list), nil
}

// remove drops a member (leave or eviction) and tombstones its record.
func (ms *Membership) remove(node i2o.NodeID, why string) {
	if node == ms.cfg.Self.Node {
		return
	}
	ms.mu.Lock()
	m, ok := ms.members[node]
	if !ok {
		ms.mu.Unlock()
		return
	}
	delete(ms.members, node)
	ms.tomb[node] = m
	ms.epoch++
	ms.notifyLocked()
	ms.mu.Unlock()

	// Fast-fail anything still addressed at the departed peer.  Idempotent
	// for evictions (health already marked it down); adoptLocked clears
	// the flag on rejoin or revival.
	ms.exec.SetPeerDown(node, true)
	if ms.cfg.Unwire != nil {
		ms.cfg.Unwire(m)
	}
	ms.logf("cluster: member %v (%s) %s", node, m.Name, why)
}

// merge applies a membership list additively: unknown members are
// adopted, known ones refreshed, nobody is removed.
func (ms *Membership) merge(epoch uint64, list []Member) {
	ms.mu.Lock()
	if epoch > ms.epoch {
		ms.epoch = epoch
	}
	added := 0
	for _, m := range list {
		if m.Node == ms.cfg.Self.Node {
			continue
		}
		if _, known := ms.members[m.Node]; known {
			ms.members[m.Node] = m
			continue
		}
		// A push can re-announce a member we evicted; trust the sender
		// (our health monitor will evict again if it is still dead).
		delete(ms.tomb, m.Node)
		if err := ms.adoptLocked(m); err != nil {
			ms.logf("cluster: adopting member %v: %v", m.Node, err)
			continue
		}
		added++
	}
	if added > 0 {
		ms.notifyLocked()
	}
	ms.mu.Unlock()
	if added > 0 {
		ms.logf("cluster: adopted %d members from push (epoch %d)", added, epoch)
	}
}

// adoptLocked wires a new member into the fabric and the TiD table.
// Caller holds ms.mu.
func (ms *Membership) adoptLocked(m Member) error {
	route := ""
	if ms.cfg.Wire != nil {
		r, err := ms.cfg.Wire(m)
		if err != nil {
			return err
		}
		route = r
		ms.exec.SetRoute(m.Node, route)
	} else if r, ok := ms.exec.Route(m.Node); ok {
		route = r
	} else {
		return fmt.Errorf("cluster: no route to member %v and no Wire callback", m.Node)
	}
	ms.exec.SetPeerDown(m.Node, false)
	ms.members[m.Node] = m

	// TiD exchange: every exported device appears behind a local proxy,
	// so callers Resolve instead of a Discover round trip per device.
	table := ms.exec.Table()
	for _, d := range m.Devices {
		if _, ok := table.Resolve(d.Class, d.Instance, m.Node); ok {
			continue
		}
		if _, err := table.AllocProxy(d.Class, d.Instance, m.Node, route, d.TID); err != nil {
			ms.logf("cluster: proxy %s[%d]@%v: %v", d.Class, d.Instance, m.Node, err)
		}
	}
	return nil
}

// membersLocked snapshots the list; caller holds ms.mu.
func (ms *Membership) membersLocked() []Member {
	out := make([]Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// notifyLocked wakes WaitReady waiters; caller holds ms.mu.
func (ms *Membership) notifyLocked() {
	close(ms.changed)
	ms.changed = make(chan struct{})
}

// broadcast pushes the member list to every member except self and skip.
func (ms *Membership) broadcast(epoch uint64, list []Member, skip i2o.NodeID) {
	params := encodeMemberList(epoch, list)
	for _, m := range list {
		if m.Node == ms.cfg.Self.Node || m.Node == skip {
			continue
		}
		if err := ms.push(m.Node, i2o.ExecPeerList, params); err != nil {
			ms.logf("cluster: push to %v: %v", m.Node, err)
		}
	}
}

// push sends one fire-and-forget executive frame carrying params.
func (ms *Membership) push(node i2o.NodeID, fn i2o.Function, params []i2o.Param) error {
	target, err := ms.exec.ExecProxy(node)
	if err != nil {
		return err
	}
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return err
	}
	m, err := ms.exec.AllocMessage(len(payload))
	if err != nil {
		return err
	}
	copy(m.Payload, payload)
	m.Priority = i2o.PriorityHigh
	m.Target = target
	m.Initiator = i2o.TIDExecutive
	m.Function = fn
	return ms.exec.Send(m)
}

// request sends one executive request carrying params and returns the
// reply.
func (ms *Membership) request(ctx context.Context, node i2o.NodeID, fn i2o.Function, params []i2o.Param) (*i2o.Message, error) {
	target, err := ms.exec.ExecProxy(node)
	if err != nil {
		return nil, err
	}
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return nil, err
	}
	m, err := ms.exec.AllocMessage(len(payload))
	if err != nil {
		return nil, err
	}
	copy(m.Payload, payload)
	m.Priority = i2o.PriorityHigh
	m.Target = target
	m.Initiator = i2o.TIDExecutive
	m.Function = fn
	return ms.exec.RequestContext(ctx, m)
}

// ---- wire encoding -------------------------------------------------------
//
// Join request:   op, node, name, addr, shm, dev.<class>#<instance>=tid
// Member list:    epoch, then per member m.<node>.{name,addr,shm} and
//                 m.<node>.dev.<class>#<instance>=tid

func encodeJoinRequest(op string, m Member) []i2o.Param {
	params := []i2o.Param{
		{Key: "op", Value: op},
		{Key: "node", Value: int64(m.Node)},
		{Key: "name", Value: m.Name},
		{Key: "addr", Value: m.Addr},
		{Key: "shm", Value: m.Shm},
	}
	for _, d := range m.Devices {
		params = append(params, i2o.Param{
			Key:   fmt.Sprintf("dev.%s#%d", d.Class, d.Instance),
			Value: int64(d.TID),
		})
	}
	return params
}

func decodeJoinRequest(params []i2o.Param) (op string, m Member, err error) {
	for _, p := range params {
		switch {
		case p.Key == "op":
			op, _ = p.Value.(string)
		case p.Key == "node":
			n, ok := p.Value.(int64)
			if !ok || n <= 0 {
				return "", m, fmt.Errorf("cluster: bad node %v", p.Value)
			}
			m.Node = i2o.NodeID(n)
		case p.Key == "name":
			m.Name, _ = p.Value.(string)
		case p.Key == "addr":
			m.Addr, _ = p.Value.(string)
		case p.Key == "shm":
			m.Shm, _ = p.Value.(string)
		case strings.HasPrefix(p.Key, "dev."):
			d, derr := parseDeviceKey(strings.TrimPrefix(p.Key, "dev."), p.Value)
			if derr != nil {
				return "", m, derr
			}
			m.Devices = append(m.Devices, d)
		}
	}
	if op == "" || m.Node == 0 {
		return "", m, fmt.Errorf("cluster: join request missing op or node")
	}
	return op, m, nil
}

func encodeMemberList(epoch uint64, list []Member) []i2o.Param {
	params := []i2o.Param{{Key: "epoch", Value: epoch}}
	for _, m := range list {
		prefix := fmt.Sprintf("m.%d.", m.Node)
		params = append(params,
			i2o.Param{Key: prefix + "name", Value: m.Name},
			i2o.Param{Key: prefix + "addr", Value: m.Addr},
			i2o.Param{Key: prefix + "shm", Value: m.Shm},
		)
		for _, d := range m.Devices {
			params = append(params, i2o.Param{
				Key:   fmt.Sprintf("%sdev.%s#%d", prefix, d.Class, d.Instance),
				Value: int64(d.TID),
			})
		}
	}
	return params
}

func decodeMemberList(payload []byte) (uint64, []Member, error) {
	params, err := i2o.DecodeParams(payload)
	if err != nil {
		return 0, nil, err
	}
	return decodeMemberListParams(params)
}

func decodeMemberListParams(params []i2o.Param) (uint64, []Member, error) {
	var epoch uint64
	byNode := make(map[i2o.NodeID]*Member)
	order := []i2o.NodeID{}
	for _, p := range params {
		if p.Key == "epoch" {
			switch v := p.Value.(type) {
			case uint64:
				epoch = v
			case int64:
				epoch = uint64(v)
			}
			continue
		}
		if !strings.HasPrefix(p.Key, "m.") {
			continue
		}
		rest := strings.TrimPrefix(p.Key, "m.")
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			return 0, nil, fmt.Errorf("cluster: bad member key %q", p.Key)
		}
		n, err := strconv.ParseUint(rest[:dot], 10, 32)
		if err != nil || n == 0 {
			return 0, nil, fmt.Errorf("cluster: bad member key %q", p.Key)
		}
		node := i2o.NodeID(n)
		m := byNode[node]
		if m == nil {
			m = &Member{Node: node}
			byNode[node] = m
			order = append(order, node)
		}
		field := rest[dot+1:]
		switch {
		case field == "name":
			m.Name, _ = p.Value.(string)
		case field == "addr":
			m.Addr, _ = p.Value.(string)
		case field == "shm":
			m.Shm, _ = p.Value.(string)
		case strings.HasPrefix(field, "dev."):
			d, derr := parseDeviceKey(strings.TrimPrefix(field, "dev."), p.Value)
			if derr != nil {
				return 0, nil, derr
			}
			m.Devices = append(m.Devices, d)
		}
	}
	list := make([]Member, 0, len(order))
	for _, node := range order {
		list = append(list, *byNode[node])
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Node < list[j].Node })
	return epoch, list, nil
}

// parseDeviceKey decodes "<class>#<instance>" (the HRT row key; the class
// may contain dots) and the TiD value.
func parseDeviceKey(key string, value any) (DeviceExport, error) {
	hash := strings.LastIndexByte(key, '#')
	if hash <= 0 {
		return DeviceExport{}, fmt.Errorf("cluster: bad device key %q", key)
	}
	inst, err := strconv.Atoi(key[hash+1:])
	if err != nil {
		return DeviceExport{}, fmt.Errorf("cluster: bad device key %q: %w", key, err)
	}
	t, ok := value.(int64)
	if !ok || !i2o.TID(t).Valid() {
		return DeviceExport{}, fmt.Errorf("cluster: bad device tid %v for %q", value, key)
	}
	return DeviceExport{Class: key[:hash], Instance: inst, TID: i2o.TID(t)}, nil
}
