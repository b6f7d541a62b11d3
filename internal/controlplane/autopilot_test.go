// The autopilot binds the deterministic controller to a live executive;
// this file exercises that binding on a real two-node loopback cluster —
// local and remote scrapes, every actuation channel, the ExecPolicyGet
// report, and teardown — from outside the package, the way xdaqd wires
// it.  The decision core itself is covered by the in-package tables in
// controller_test.go.
package controlplane_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xdaq"
	"xdaq/internal/controlplane"
	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// policyGet scrapes a node's own ExecPolicyGet report, wire-identical to
// what a cluster controller would request.
func policyGet(n *xdaq.Node) (map[string]any, error) {
	target, err := n.Exec.Resolve("executive", 0, i2o.NodeNone)
	if err != nil {
		return nil, err
	}
	rep, err := n.Exec.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: target, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecPolicyGet,
	})
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]any, len(params))
	for _, p := range params {
		byKey[p.Key] = p.Value
	}
	return byKey, nil
}

// TestAutopilotActuatesCluster runs the full device on a two-node
// loopback cluster: the pilot on node 1 watches both members, its rules
// fire once, and every actuation channel — dispatcher rescale, device
// parameter write, QoS install, failover — must land both locally and
// across the fabric.
func TestAutopilotActuatesCluster(t *testing.T) {
	pilot, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "pilot", Node: 1, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pilot.Close()
	worker, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "worker", Node: 2, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	if err := xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(pilot, worker)); err != nil {
		t.Fatal(err)
	}
	nodes := []*xdaq.Node{pilot, worker}
	knobs := make(map[string]*device.Device, len(nodes))
	for _, n := range nodes {
		knob := device.New("knob", 0)
		if _, err := n.Exec.Plug(knob); err != nil {
			t.Fatal(err)
		}
		knobs[n.Exec.Name()] = knob
	}

	// Each rule fires exactly once per matching node: the condition holds
	// for the first 20 ticks (wide enough that a slow first remote scrape
	// cannot miss the window) and the cooldown outlasts the test.  After
	// tick 20 the conditions go false, so the decision log is static from
	// then on.  drain fires for node 1 only — the failover fan-out then
	// exercises the remote ExecSysTabSet path (node 2 is the only other
	// member).
	pol, err := controlplane.Load("ap.tcl", `
rule tune {
    when {$tick <= 20}
    cooldown 1000000
    do {dispatchers 3; param knob 0 level 7; qos bulk 6 100 64 true; log tuned}
}
rule drain {
    when {$tick <= 20 && $node == 1}
    cooldown 1000000
    do {failover pt.loopback}
}`)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := controlplane.NewAutopilot(controlplane.AutopilotConfig{
		Exec:     pilot.Exec,
		Policy:   pol,
		Interval: 2 * time.Millisecond,
		Nodes:    func() []i2o.NodeID { return []i2o.NodeID{1, 2} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()

	// Every actuation lands: the rescale on both executives, the knob
	// parameter through UtilParamsSet, the QoS class at both PTAs.
	for _, n := range nodes {
		n := n
		if !waitFor(5*time.Second, func() bool { return n.Exec.Dispatchers() == 3 }) {
			t.Fatalf("node %s: dispatchers = %d, want 3\ndecisions: %v",
				n.Exec.Name(), n.Exec.Dispatchers(), ap.Controller().Decisions())
		}
		if !waitFor(5*time.Second, func() bool {
			classes := n.Agent.QoS()
			return len(classes) == 1 && classes[0].Name == "bulk" &&
				classes[0].Priority == i2o.PriorityBulk && classes[0].Rate == 100 &&
				classes[0].Burst == 64 && classes[0].Queue
		}) {
			t.Fatalf("node %s: qos classes %v", n.Exec.Name(), n.Agent.QoS())
		}
	}
	for _, n := range nodes {
		knob := knobs[n.Exec.Name()]
		level := func() any { v, _ := knob.Params().Get("level"); return v }
		if !waitFor(5*time.Second, func() bool { return level() == int64(7) }) {
			t.Fatalf("node %s: knob level = %v, want 7", n.Exec.Name(), level())
		}
	}

	// Past tick 20 every condition is false: the decision log is frozen,
	// holding one actuated entry per channel per node and the failover
	// for node 1 exactly once.
	if !waitFor(5*time.Second, func() bool { return ap.Controller().Tick() > 20 }) {
		t.Fatal("controller never reached tick 21")
	}
	count := func(substr string) int {
		n := 0
		for _, d := range ap.Controller().Decisions() {
			if d.Outcome == "actuated" && strings.Contains(d.Action, substr) {
				n++
			}
		}
		return n
	}
	if got := count("dispatchers 3"); got != 2 {
		t.Errorf("dispatcher actuations = %d, want 2 (one per node)", got)
	}
	if got := count("failover pt.loopback"); got != 1 {
		t.Errorf("failover actuations = %d, want 1", got)
	}

	// The report is live on ExecPolicyGet while the autopilot runs...
	byKey, err := policyGet(pilot)
	if err != nil {
		t.Fatal(err)
	}
	if byKey["autopilot"] != "on" || byKey["policy"] != "ap.tcl" || byKey["hash"] != pol.Hash {
		t.Fatalf("report identity %v", byKey)
	}
	if byKey["rules"] != int64(2) {
		t.Fatalf("report rules %v", byKey["rules"])
	}
	local := ap.Controller().Decisions()
	if len(local) == 0 {
		t.Fatal("empty decision log")
	}
	for _, d := range local {
		key := fmt.Sprintf("decision.%08d", d.Seq)
		if got := byKey[key]; got != d.String() {
			t.Errorf("report %s = %q, local log says %q", key, got, d.String())
		}
	}

	// ...and withdrawn after Close: the node answers autopilot=off, the
	// actuated state stays in force, and a second Close is a no-op.
	ap.Close()
	ap.Close()
	byKey, err = policyGet(pilot)
	if err != nil {
		t.Fatal(err)
	}
	if byKey["autopilot"] != "off" {
		t.Fatalf("after Close: %v", byKey)
	}
	if got := pilot.Exec.Dispatchers(); got != 3 {
		t.Fatalf("Close rolled back the rescale: dispatchers = %d", got)
	}
}

// TestNewAutopilotValidation covers the assembly errors: a missing
// executive or policy must be refused before any goroutine starts.
func TestNewAutopilotValidation(t *testing.T) {
	if _, err := controlplane.NewAutopilot(controlplane.AutopilotConfig{}); err == nil {
		t.Error("nil executive accepted")
	}
	n, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "lone", Node: 9, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := controlplane.NewAutopilot(controlplane.AutopilotConfig{Exec: n.Exec}); err == nil {
		t.Error("nil policy accepted")
	}
}

// stubSource lets the external package probe New's collaborator checks.
type stubSource struct{}

func (stubSource) Nodes() []i2o.NodeID                              { return nil }
func (stubSource) Scrape(i2o.NodeID) (controlplane.Snapshot, error) { return nil, nil }

func TestNewValidation(t *testing.T) {
	pol, err := controlplane.Load("v.tcl", `rule r { when {1}; do {log x} }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controlplane.New(controlplane.Config{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := controlplane.New(controlplane.Config{Policy: pol}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := controlplane.New(controlplane.Config{Policy: pol, Source: stubSource{}}); err == nil {
		t.Error("nil actuator accepted")
	}
}

// TestSnapshotFromParams keeps the ExecMetricsGet decode honest: uint64
// counters stay unsigned, int64 gauges stay signed, and non-numeric rows
// are dropped.
func TestSnapshotFromParams(t *testing.T) {
	s := controlplane.SnapshotFromParams([]i2o.Param{
		{Key: "c", Value: uint64(1) << 63},
		{Key: "g", Value: int64(-4)},
		{Key: "label", Value: "text"},
	})
	if len(s) != 2 {
		t.Fatalf("snapshot %v", s)
	}
	if m := s["c"]; !m.IsUint || m.Uint != uint64(1)<<63 {
		t.Errorf("counter row %+v", m)
	}
	if m := s["g"]; m.IsUint || m.Int != -4 {
		t.Errorf("gauge row %+v", m)
	}
}

// TestLoadDirectiveArity covers the evaluation-command arity errors the
// in-package tables skip: every one must be a load failure, not a
// runtime surprise.
func TestLoadDirectiveArity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"for-arity", `rule r { when {1}; for 1 2; do {log x} }`},
		{"metric-arity", `rule r { when {[metric a b] > 0}; do {log x} }`},
		{"rate-arity", `rule r { when {[rate] > 0}; do {log x} }`},
		{"param-arity", `rule r { when {1}; do {param knob level 7} }`},
		{"param-instance", `rule r { when {1}; do {param knob x level 7} }`},
		{"failover-arity", `rule r { when {1}; do {failover} }`},
		{"log-arity", `rule r { when {1}; do {log} }`},
		{"qos-rate", `rule r { when {1}; do {qos bulk 6 fast} }`},
		{"dispatchers-arity", `rule r { when {1}; do {dispatchers} }`},
	}
	for _, c := range cases {
		if _, err := controlplane.Load(c.name, c.src); err == nil {
			t.Errorf("%s: loaded", c.name)
		}
	}
}
