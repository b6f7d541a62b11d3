// Package chaos is a deterministic, seeded chaos/soak harness for XDAQ-go
// clusters.  It drives a multi-node in-process cluster — loopback, TCP, GM,
// or the paper's mixed GM-data/TCP-control deployment (§5) — through
// randomized workloads (request/reply storms, fire-and-forget sequence
// streams, SGL bulk transfers, DAQ event-builder rounds, concurrent
// failovers, dispatcher rescales) while a fault schedule derived from
// internal/transport/faults runs underneath: drops, delays, duplicated wire
// frames, injected send errors, severed TCP connections, ring-full
// pressure, and data-transport kills with health-monitor failover.
//
// After every round the cluster is driven to a quiescent point and a set of
// pluggable invariant checkers validates global properties the paper's
// frame discipline implies: per-(sender,peer,worker) frame conservation
// with no duplication or reordering, zero leaked buffer-pool blocks,
// pending-reply tables drained to empty, inbound schedulers empty, every
// proxy route naming a live (or failed-over) peer transport, and health
// state machines consistent across nodes.
//
// Every run is reproducible from a single seed: the full fault schedule and
// round script are a pure function of Options (see PlanString), the seed is
// printed in every failure, and failure reports attach each node's trace
// ring.  Short seeded runs are tier-1 tests (`go test ./internal/chaos`);
// cmd/xdaqsoak runs the same harness for minutes or hours.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/cluster"
	"xdaq/internal/controlplane"
	"xdaq/internal/executive"
	"xdaq/internal/health"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
	"xdaq/internal/transport/gm"
	"xdaq/internal/transport/loopback"
	"xdaq/internal/transport/tcp"
)

// Options selects the cluster shape, workload mix, and fault intensity of
// one chaos run.  The zero value is completed by withDefaults; Seed is the
// only field without a useful default — equal Options always produce equal
// fault schedules and round scripts.
type Options struct {
	// Seed drives every random decision of the run.
	Seed int64

	// Nodes is the cluster size; defaults to 3.
	Nodes int

	// Fabric selects the interconnect: "loopback" (default), "tcp", "gm",
	// or "gm+tcp" (GM data plane with TCP control plane and failover).
	Fabric string

	// Rounds is how many storm/quiesce/check cycles to run; defaults to 3.
	Rounds int

	// Duration is the total storm time, split evenly across rounds;
	// defaults to 900ms.
	Duration time.Duration

	// Faults is the injected-fault intensity: "none" (default), "light",
	// or "heavy".
	Faults string

	// Workers is the number of storm goroutines per node; defaults to 3.
	Workers int

	// Kill stops one node's data transport mid-run; requires a fabric
	// with a fallback route ("gm+tcp") for the cluster to stay whole.
	Kill bool

	// Rescale churns every node's dispatcher count between rounds.
	Rescale bool

	// Bulk adds SGL bulk transfers on serializing fabrics.
	Bulk bool

	// EventBuilder adds DAQ event-builder rounds: a hierarchical
	// deployment (EVM/RU on the first node, RU plus aggregator on the
	// second, two sharded BUs on the last) re-armed every round.
	EventBuilder bool

	// KillBU kills one builder unit mid-round (and evicts it from the
	// shard map) on seeded rounds, so the exactly-once audit exercises
	// the EVM's dynamic rebalancing.  Requires EventBuilder.
	KillBU bool

	// Storage adds striped-storage rounds: a seeded record stream is
	// replayed into two storage writer devices every round, and the
	// on-disk segment set is audited for exactly-once persistence at
	// every quiescent point.
	Storage bool

	// KillSW crashes one storage writer mid-replay (torn segment tail,
	// no acks) on a seeded round, reopens it, and replays the full
	// stream — recovery must converge with zero lost and zero duplicated
	// events.  Requires Storage.
	KillSW bool

	// Policy arms the self-tuning control plane: the script is compiled
	// at build time and a cp.autopilot device on node 1 scrapes every
	// member and actuates the policy's rules throughout the run.
	// HotDevPolicy is the canonical script for HotDev runs.
	Policy string

	// HotDev skews one device's service time mid-run on a seeded round:
	// the victim's echo handler gains a multi-millisecond stall that
	// serializes its node behind a single dispatcher.  Requires Policy —
	// the autopilot must detect the sustained queue pressure, rescale
	// the victim's dispatchers, and the storm p99 must recover (the
	// policy convergence checker asserts all three).  Incompatible with
	// Rescale, which would fight the autopilot for the same knob.
	HotDev bool

	// KillCP closes the autopilot at the start of the last round: the
	// cluster must degrade gracefully to the last-actuated state — every
	// knob keeps its value and ExecPolicyGet reports the autopilot off.
	// Requires Policy.
	KillCP bool

	// Checkers validates invariants at every quiescent point; defaults to
	// DefaultCheckers().
	Checkers []Checker

	// Logf sinks progress diagnostics; nil silences them.
	Logf func(format string, args ...any)

	// sabotage, when set by a test, runs after the warm-up baseline is
	// captured — the hook for demonstrating that a deliberately broken
	// invariant is caught and reported with seed and trace dump.
	sabotage func(*Cluster)
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Fabric == "" {
		o.Fabric = "loopback"
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.Duration <= 0 {
		o.Duration = 900 * time.Millisecond
	}
	if o.Faults == "" {
		o.Faults = "none"
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	return o
}

// Node is one cluster member under chaos.
type Node struct {
	ID    i2o.NodeID
	Exec  *executive.Executive
	Agent *pta.Agent
	Mon   *health.Monitor
	MS    *cluster.Membership
	TCP   *tcp.Transport
	GM    *gm.Transport
	LB    *loopback.Endpoint

	// Inj and WInj are the node's send-path and tcp wire-path injectors
	// (nil on fault-free runs); conservation budgets read their per-rule
	// hit counts.
	Inj  *faults.Injector
	WInj *faults.Injector

	// baseline is the pool-block population at the last clean quiescent
	// point, normalized by subtracting one block per live TCP connection
	// (each connection's readLoop legitimately holds a receive block, and
	// failover or redial move the connection count mid-run); the pool
	// checker ratchets it down and reports any rise.
	baseline int64

	// echoTID / seqTID are proxies to each peer's workload devices.
	echoTID map[i2o.NodeID]i2o.TID
	seqTID  map[i2o.NodeID]i2o.TID

	// nextSeq[worker][dst] numbers this node's fire-and-forget stream per
	// (worker, destination); only successfully sent frames consume one.
	nextSeq []map[i2o.NodeID]uint32

	// recvMu guards recv: (src<<16|worker) -> sequence numbers in arrival
	// order, recorded by the chaos.seq device handler.
	recvMu sync.Mutex
	recv   map[uint32][]uint32

	echoOK  atomic.Uint64
	echoErr atomic.Uint64
	seqSent atomic.Uint64
	seqErr  atomic.Uint64

	// hotNS is the injected echo service-time skew in nanoseconds (0:
	// none); the HotDev round stores it on the victim.
	hotNS atomic.Int64
}

// poolPopulation returns the node's pool-block population excluding the
// one receive block each live TCP connection holds: the remainder is what
// must return to (or below) the baseline at every quiescent point.
func (n *Node) poolPopulation() int64 {
	in := n.Exec.Allocator().Stats().InUse
	if n.TCP != nil {
		in -= int64(n.TCP.Conns())
	}
	return in
}

// sentTo returns how many seq frames this node successfully sent to dst on
// behalf of worker w.
func (n *Node) sentTo(w int, dst i2o.NodeID) uint32 {
	if w >= len(n.nextSeq) {
		return 0
	}
	return n.nextSeq[w][dst]
}

// Cluster is one running chaos deployment plus everything the invariant
// checkers need to audit it.
type Cluster struct {
	Opts   Options
	Nodes  []*Node
	rounds []roundPlan
	plan   string

	// lossy records that frames may legitimately be missing (drop faults,
	// severed connections, or a transport kill happened); dups records
	// that duplicate faults are active.  The conservation checker loosens
	// exactly these two screws and no others.
	lossy bool
	dups  bool

	// gmDead marks nodes whose GM transport was killed.
	gmDead map[i2o.NodeID]bool

	// poolRebase tells the next pool audit to re-take its per-node
	// baselines instead of comparing: a kill/failover legitimately moves
	// the steady-state pool population (fresh connection read blocks,
	// released GM receive rings).
	poolRebase bool

	// eb is the persistent event-builder deployment (nil unless
	// Options.EventBuilder).
	eb *ebState

	// sw is the persistent striped-storage deployment (nil unless
	// Options.Storage).
	sw *swState

	// ap is the control-plane autopilot on node 1 (nil unless
	// Options.Policy); apClosed and apLastDisp record a KillCP
	// degradation — the autopilot was deliberately closed mid-run, with
	// every node's dispatcher count captured right after the close so
	// the policy checker can assert nothing rolled back.
	ap         *controlplane.Autopilot
	apClosed   bool
	apLastDisp map[i2o.NodeID]int

	// hot* record the HotDev round for the policy convergence checker:
	// the victim, the controller tick when the skew was injected, the
	// storm ping p99 before the skew and after the autopilot's rescale,
	// and whether the rescale was observed at all.
	hotVictim    i2o.NodeID
	hotTick0     uint64
	hotActuated  bool
	hotBaseline  time.Duration
	hotRecovered time.Duration

	mu         sync.Mutex
	violations []string
}

// violate records one invariant violation.
func (c *Cluster) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *Cluster) logf(format string, args ...any) {
	if c.Opts.Logf != nil {
		c.Opts.Logf(format, args...)
	}
}

// node returns the member with the given identity.
func (c *Cluster) node(id i2o.NodeID) *Node {
	return c.Nodes[int(id)-1]
}

// Report is the outcome of a run.  String() renders everything a human
// needs to reproduce and debug a failure: the seed, the plan, the
// violations, and each node's trace ring.
type Report struct {
	Seed       int64
	Plan       string
	Violations []string
	Traces     map[i2o.NodeID]string

	EchoOK, EchoErr   uint64
	SeqSent, SeqRecvd uint64
}

// Failed reports whether any invariant checker fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run seed=%d: echo ok=%d err=%d, seq sent=%d recvd=%d, violations=%d\n",
		r.Seed, r.EchoOK, r.EchoErr, r.SeqSent, r.SeqRecvd, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Failed() {
		fmt.Fprintf(&b, "reproduce with: xdaqsoak -seed %d\n", r.Seed)
		b.WriteString(r.Plan)
		for id, dump := range r.Traces {
			fmt.Fprintf(&b, "--- trace ring node %d ---\n%s", id, dump)
		}
	}
	return b.String()
}

// Run executes one chaos run and returns its report.  The error is non-nil
// exactly when an invariant checker fired (or the cluster could not be
// built); its text includes the seed and the full report.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := build(o)
	if err != nil {
		return nil, fmt.Errorf("chaos: build (seed=%d): %w", o.Seed, err)
	}
	defer c.shutdown()

	checkers := o.Checkers
	if checkers == nil {
		checkers = DefaultCheckers()
	}

	// Warm-up: a short clean storm settles lazy allocations (frame pools,
	// per-connection receive blocks, return proxies) before baselines are
	// captured and faults armed.
	c.storm(50 * time.Millisecond)
	if err := c.quiesce(5 * time.Second); err != nil {
		c.violate("warm-up quiesce: %v", err)
	}
	c.rebaseline()
	c.armFaults()
	if o.sabotage != nil {
		o.sabotage(c)
	}

	stormPer := o.Duration / time.Duration(len(c.rounds))
	for r, rp := range c.rounds {
		c.logf("chaos: round %d/%d", r+1, len(c.rounds))
		if rp.Dispatchers != nil {
			for i, n := range c.Nodes {
				n.Exec.SetDispatchers(rp.Dispatchers[i])
			}
		}
		if rp.Kill != 0 {
			c.kill(rp.Kill)
		}
		if o.KillCP && r == len(c.rounds)-1 && c.ap != nil && !c.apClosed {
			c.killAutopilot()
		}
		if rp.Hot != 0 {
			c.hotRound(rp.Hot, stormPer)
		} else {
			c.storm(stormPer)
		}
		if rp.Bulk > 0 {
			c.bulkRound(rp.Bulk)
		}
		if rp.Events > 0 {
			c.eventBuilderRound(r, rp.Events, rp.KillBU)
		}
		if rp.Writes > 0 {
			c.storageRound(r, rp.Writes, rp.KillSW)
		}
		if err := c.quiesce(10 * time.Second); err != nil {
			c.violate("round %d quiesce: %v", r+1, err)
			break // a wedged cluster makes further rounds meaningless
		}
		for _, ck := range checkers {
			for _, v := range ck.Check(c) {
				c.violate("round %d, %s: %s", r+1, ck.Name(), v)
			}
		}
	}

	rep := c.report()
	if rep.Failed() {
		return rep, fmt.Errorf("chaos: %d invariant violation(s), reproduce with seed=%d\n%s",
			len(rep.Violations), rep.Seed, rep.String())
	}
	return rep, nil
}

// build wires the cluster for o.Fabric.  Faults are not armed yet — the
// control traffic of discovery and the warm-up storm run clean, so a build
// never fails because of its own fault schedule.
func build(o Options) (*Cluster, error) {
	if o.Kill && o.Fabric != "gm+tcp" {
		return nil, errors.New("kill requires the gm+tcp fabric (a fallback route)")
	}
	if o.KillBU && !o.EventBuilder {
		return nil, errors.New("killbu requires the event-builder workload")
	}
	if o.KillSW && !o.Storage {
		return nil, errors.New("killsw requires the storage workload")
	}
	if o.HotDev && o.Policy == "" {
		return nil, errors.New("hotdev requires a policy (the autopilot is what rescales the hot node)")
	}
	if o.HotDev && o.Rescale {
		return nil, errors.New("hotdev and rescale fight over the dispatcher knob")
	}
	if o.KillCP && o.Policy == "" {
		return nil, errors.New("killcp requires a policy")
	}
	if o.Nodes < 2 {
		return nil, errors.New("need at least 2 nodes")
	}
	c := &Cluster{
		Opts:   o,
		rounds: buildRounds(o),
		plan:   PlanString(o),
		gmDead: make(map[i2o.NodeID]bool),
	}
	switch o.Faults {
	case "light", "heavy":
		c.lossy, c.dups = true, true
	case "none":
	default:
		return nil, fmt.Errorf("unknown fault level %q", o.Faults)
	}

	var lbFab *loopback.Fabric
	var gmFab *gm.Fabric
	gmRoutes := map[i2o.NodeID]gm.Port{}
	useLB := o.Fabric == "loopback"
	useTCP := o.Fabric == "tcp" || o.Fabric == "gm+tcp"
	useGM := o.Fabric == "gm" || o.Fabric == "gm+tcp"
	switch {
	case useLB:
		lbFab = loopback.NewFabric()
	case useGM:
		gmFab = gm.NewFabric()
		for i := 1; i <= o.Nodes; i++ {
			gmRoutes[i2o.NodeID(i)] = gm.Port(i)
		}
		if !useTCP && o.Fabric != "gm" {
			return nil, fmt.Errorf("unknown fabric %q", o.Fabric)
		}
	case useTCP:
	default:
		return nil, fmt.Errorf("unknown fabric %q", o.Fabric)
	}

	fail := func(err error) (*Cluster, error) {
		c.shutdown()
		return nil, err
	}

	for i := 1; i <= o.Nodes; i++ {
		id := i2o.NodeID(i)
		e := executive.New(executive.Options{
			Name: fmt.Sprintf("chaos%d", id), Node: id,
			RequestTimeout: 2 * time.Second,
			Logf:           func(string, ...any) {},
		})
		e.SetTrace(true)
		agent, err := pta.New(e)
		if err != nil {
			e.Close()
			return fail(err)
		}
		n := &Node{
			ID: id, Exec: e, Agent: agent,
			Inj:     sendInjector(o, id),
			WInj:    wireInjector(o, id),
			echoTID: make(map[i2o.NodeID]i2o.TID),
			seqTID:  make(map[i2o.NodeID]i2o.TID),
			recv:    make(map[uint32][]uint32),
			nextSeq: make([]map[i2o.NodeID]uint32, o.Workers),
		}
		for w := range n.nextSeq {
			n.nextSeq[w] = make(map[i2o.NodeID]uint32)
		}
		c.Nodes = append(c.Nodes, n)

		if useLB {
			ep, err := lbFab.Attach(id)
			if err != nil {
				return fail(err)
			}
			ep.SetMetrics(e.Metrics())
			if err := agent.Register(ep, pta.Task); err != nil {
				return fail(err)
			}
			n.LB = ep
		}
		if useTCP {
			depth := 0
			if o.Faults == "heavy" {
				depth = 32 // small rings: ring-full pressure is part of the schedule
			}
			tr, err := tcp.New(id, e.Allocator(), tcp.Config{
				Listen: "127.0.0.1:0", Metrics: e.Metrics(), RingDepth: depth,
			})
			if err != nil {
				return fail(err)
			}
			if err := agent.Register(tr, pta.Task); err != nil {
				return fail(err)
			}
			n.TCP = tr
		}
		if useGM {
			nic, err := gmFab.Open(gmRoutes[id])
			if err != nil {
				return fail(err)
			}
			tr, err := gm.NewTransport(nic, e.Allocator(), gm.Config{
				Routes: gmRoutes, Metrics: e.Metrics(),
			})
			if err != nil {
				return fail(err)
			}
			if err := agent.Register(tr, pta.Task); err != nil {
				return fail(err)
			}
			n.GM = tr
		}
		if o.Faults != "none" {
			agent.SetRetryPolicy(pta.RetryPolicy{
				Attempts: 4, Backoff: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond,
			})
		}
		plugWorkloadDevices(c, n)
	}

	// Routing: TCP peers all-to-all when present; the data route is GM
	// when available, else the single fabric.
	dataRoute := loopback.DefaultName
	if useTCP {
		dataRoute = tcp.PTName
	}
	if useGM {
		dataRoute = gm.PTName
	}
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if a == b {
				continue
			}
			if useTCP {
				a.TCP.AddPeer(b.ID, b.TCP.Addr())
			}
			a.Exec.SetRoute(b.ID, dataRoute)
		}
	}

	// Membership: the bootstrap protocol rides the fabric under test.
	// Node 1 seeds; everyone else joins through it over the already-wired
	// routes (no Wire callback needed in-process).
	for _, n := range c.Nodes {
		ms, err := cluster.NewMembership(cluster.MembershipConfig{
			Exec: n.Exec,
			Self: cluster.Member{Name: fmt.Sprintf("chaos%d", n.ID)},
		})
		if err != nil {
			return fail(err)
		}
		n.MS = ms
	}
	for _, n := range c.Nodes[1:] {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := n.MS.Join(ctx, c.Nodes[0].ID)
		cancel()
		if err != nil {
			return fail(fmt.Errorf("membership join from node %d: %w", n.ID, err))
		}
	}

	// Health monitors with TCP fallback guard the kill/failover scenarios.
	// A peer declared down is evicted from the membership; a recovered one
	// is re-admitted — the membership checker audits this coupling.
	if o.Fabric == "gm+tcp" {
		for _, n := range c.Nodes {
			fb := make(map[i2o.NodeID]string)
			for _, p := range c.Nodes {
				if p != n {
					fb[p.ID] = tcp.PTName
				}
			}
			ms := n.MS
			n.Mon = health.New(n.Exec, health.Config{
				Interval: 25 * time.Millisecond, Timeout: 60 * time.Millisecond,
				Threshold: 3, Fallback: fb,
				OnState: func(node i2o.NodeID, s health.State) {
					switch s {
					case health.Down:
						ms.Evict(node)
						// A node that is down took its builder units
						// with it: hand their event ranges to the
						// survivors.  c.eb is consulted at fire time —
						// the event builder is wired after the
						// monitors start.
						if c.eb != nil {
							c.eb.evm.PeerDown(node)
						}
					case health.Up:
						ms.Revive(node)
					}
				},
			})
		}
	}

	// Discover every peer's workload devices (clean control traffic).
	for _, n := range c.Nodes {
		for _, p := range c.Nodes {
			if p == n {
				continue
			}
			et, err := n.Exec.Discover(p.ID, echoClass, 0)
			if err != nil {
				return fail(fmt.Errorf("discover echo on %d from %d: %w", p.ID, n.ID, err))
			}
			st, err := n.Exec.Discover(p.ID, seqClass, 0)
			if err != nil {
				return fail(fmt.Errorf("discover seq on %d from %d: %w", p.ID, n.ID, err))
			}
			n.echoTID[p.ID], n.seqTID[p.ID] = et, st
		}
	}
	if o.EventBuilder {
		if err := c.setupEventBuilder(); err != nil {
			return fail(err)
		}
	}
	if o.Storage {
		if err := c.setupStorage(); err != nil {
			return fail(err)
		}
	}
	// The autopilot goes on node 1 (never a kill victim) once the routes
	// and membership are up, so its very first scrape reaches everyone.
	if o.Policy != "" {
		pol, err := controlplane.Load("chaos-policy", o.Policy)
		if err != nil {
			return fail(err)
		}
		ids := make([]i2o.NodeID, len(c.Nodes))
		for i, n := range c.Nodes {
			ids[i] = n.ID
		}
		ap, err := controlplane.NewAutopilot(controlplane.AutopilotConfig{
			Exec:     c.Nodes[0].Exec,
			Policy:   pol,
			Interval: policyTick,
			Nodes:    func() []i2o.NodeID { return ids },
		})
		if err != nil {
			return fail(err)
		}
		c.ap = ap
	}
	return c, nil
}

// armFaults installs the seeded injectors on every transport.  Called after
// warm-up so discovery and baseline capture are never faulted.
func (c *Cluster) armFaults() {
	if c.Opts.Faults == "none" {
		return
	}
	for _, n := range c.Nodes {
		if n.LB != nil {
			n.LB.SetFaults(n.Inj)
		}
		if n.GM != nil {
			n.GM.SetFaults(n.Inj)
		}
		if n.TCP != nil {
			n.TCP.SetFaults(n.Inj)
			if n.WInj != nil {
				n.TCP.SetWireFaults(n.WInj)
			}
		}
	}
}

// kill stops the victim's GM transport: its data plane vanishes mid-run and
// every health monitor must fail the routes over to TCP.
func (c *Cluster) kill(victim i2o.NodeID) {
	n := c.node(victim)
	if n.GM == nil || c.gmDead[victim] {
		return
	}
	c.logf("chaos: killing GM transport of node %d", victim)
	n.GM.Stop()
	c.gmDead[victim] = true
	c.lossy = true // frames in flight on the dead fabric are gone

	// Wait for the health monitors to fail the dead data plane over to the
	// TCP control plane: every survivor's route to the victim, and every
	// route of the victim itself, must leave GM.  The routes checker then
	// validates the whole table strictly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, p := range c.Nodes {
			if p == n {
				continue
			}
			if r, ok := p.Exec.Route(victim); !ok || r == gm.PTName {
				settled = false
			}
			if r, ok := n.Exec.Route(p.ID); !ok || r == gm.PTName {
				settled = false
			}
		}
		if settled {
			// Failover dials fresh TCP connections, and every live
			// connection's read loop owns one pool block (allocated lazily
			// at the first inbound frame); the victim's stopped GM released
			// its posted receive ring.  Both legitimately shift the
			// steady-state pool population, so the next pool audit re-takes
			// its baselines instead of comparing against the pre-kill ones.
			c.poolRebase = true
			return
		}
		if time.Now().After(deadline) {
			c.violate("failover after killing node %d's GM did not complete within 5s", victim)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// quiesce waits for every node to drain: empty inbound scheduler and empty
// pending-reply table, stable across consecutive samples.  Health probes
// keep running, so a single idle sample is not enough.
func (c *Cluster) quiesce(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	idleRuns := 0
	for {
		idle := true
		for _, n := range c.Nodes {
			if n.Exec.QueueLen() != 0 || n.Exec.PendingRequests() != 0 {
				idle = false
				break
			}
		}
		if idle {
			if idleRuns++; idleRuns >= 3 {
				return nil
			}
		} else {
			idleRuns = 0
		}
		if time.Now().After(deadline) {
			var b strings.Builder
			for _, n := range c.Nodes {
				fmt.Fprintf(&b, " node%d(queue=%d pending=%d)",
					n.ID, n.Exec.QueueLen(), n.Exec.PendingRequests())
			}
			return fmt.Errorf("cluster did not drain within %v:%s", budget, b.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rebaseline captures the current connection-normalized pool population as
// every node's clean floor.  Called once after warm-up; the pool checker
// ratchets it.
func (c *Cluster) rebaseline() {
	for _, n := range c.Nodes {
		n.baseline = n.poolPopulation()
	}
}

func (c *Cluster) report() *Report {
	rep := &Report{
		Seed: c.Opts.Seed, Plan: c.plan,
		Violations: append([]string(nil), c.violations...),
	}
	for _, n := range c.Nodes {
		rep.EchoOK += n.echoOK.Load()
		rep.EchoErr += n.echoErr.Load()
		rep.SeqSent += n.seqSent.Load()
		n.recvMu.Lock()
		for _, seqs := range n.recv {
			rep.SeqRecvd += uint64(len(seqs))
		}
		n.recvMu.Unlock()
	}
	if rep.Failed() {
		rep.Traces = make(map[i2o.NodeID]string)
		for _, n := range c.Nodes {
			rep.Traces[n.ID] = n.Exec.TraceRing().Dump()
		}
	}
	return rep
}

func (c *Cluster) shutdown() {
	if c.ap != nil {
		c.ap.Close() // idempotent after a KillCP round
	}
	if c.sw != nil {
		c.sw.shutdown()
	}
	for _, n := range c.Nodes {
		if n.Mon != nil {
			n.Mon.Close()
		}
		if n.MS != nil {
			n.MS.Close()
		}
	}
	for _, n := range c.Nodes {
		n.Agent.Close()
		n.Exec.Close()
	}
}
