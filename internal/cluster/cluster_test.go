package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/health"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/tclish"
	"xdaq/internal/transport/loopback"
)

// testCluster wires a host (node 100) and two processing nodes (1, 2)
// over loopback.
type testCluster struct {
	host  *executive.Executive
	nodes map[i2o.NodeID]*executive.Executive
}

func buildCluster(t *testing.T, extraHosts ...i2o.NodeID) *testCluster {
	t.Helper()
	fabric := loopback.NewFabric()
	ids := append([]i2o.NodeID{100, 1, 2}, extraHosts...)
	execs := make(map[i2o.NodeID]*executive.Executive, len(ids))
	for _, id := range ids {
		e := executive.New(executive.Options{
			Name: "n", Node: id,
			RequestTimeout: 2 * time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(ep, pta.Task); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		execs[id] = e
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				execs[a].SetRoute(b, loopback.DefaultName)
			}
		}
	}
	return &testCluster{host: execs[100], nodes: execs}
}

func init() {
	executive.RegisterModule("cluster.echo", func(instance int, params []i2o.Param) (*device.Device, error) {
		d := device.New("echo", instance)
		d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
			return device.ReplyIfExpected(ctx, m, m.Payload)
		})
		for _, p := range params {
			if p.Key != "module" && p.Key != "instance" {
				d.Params().Set(p.Key, p.Value)
			}
		}
		return d, nil
	})
}

func primary(t *testing.T, tc *testCluster) *Controller {
	t.Helper()
	c, err := NewPrimary(tc.host)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []i2o.NodeID{1, 2} {
		if err := c.AddNode(n, "worker"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestPrimaryLifecycle(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	if !c.HoldsControl() {
		t.Fatal("primary does not hold control")
	}
	if got := c.Nodes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("nodes %v", got)
	}
	if err := c.AddNode(55, "unrouted"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unrouted add: %v", err)
	}
}

func TestStatusAndResources(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	status, err := c.Status(1)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]any{}
	for _, p := range status {
		found[p.Key] = p.Value
	}
	if found["node"] != int64(1) || found["state"] != "operational" {
		t.Fatalf("status %v", found)
	}
	res, err := c.Resources(1)
	if err != nil {
		t.Fatal(err)
	}
	hasExec := false
	for _, p := range res {
		if p.Key == "executive#0" {
			hasExec = true
		}
	}
	if !hasExec {
		t.Fatalf("resources %v", res)
	}
	if _, err := c.Status(42); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("status unknown node: %v", err)
	}
}

func TestPlugConfigureUnplugRemotely(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	id, err := c.Plug(1, "cluster.echo", 3, []i2o.Param{{Key: "rate", Value: int64(50)}})
	if err != nil {
		t.Fatal(err)
	}
	if !id.Valid() {
		t.Fatalf("tid %v", id)
	}
	params, err := c.GetParams(1, "echo", 3, []string{"rate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 1 || params[0].Value != int64(50) {
		t.Fatalf("params %v", params)
	}
	if err := c.SetParams(1, "echo", 3, []i2o.Param{{Key: "rate", Value: int64(99)}}); err != nil {
		t.Fatal(err)
	}
	params, _ = c.GetParams(1, "echo", 3, []string{"rate"})
	if params[0].Value != int64(99) {
		t.Fatalf("params after set %v", params)
	}
	if err := c.Unplug(1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetParams(1, "echo", 3, nil); err == nil {
		t.Fatal("device survived unplug")
	}
}

func TestEnableQuiesceAll(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	in := tclish.New(nil)
	c.Bind(in)
	if _, err := in.Eval("quiesce all"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []i2o.NodeID{1, 2} {
		if tc.nodes[n].State() != device.Quiesced {
			t.Fatalf("node %v state %v", n, tc.nodes[n].State())
		}
	}
	if _, err := in.Eval("enable all"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []i2o.NodeID{1, 2} {
		if tc.nodes[n].State() != device.Operational {
			t.Fatalf("node %v state %v", n, tc.nodes[n].State())
		}
	}
}

func TestSetSystemTable(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	if err := c.SetSystemTable(1, map[i2o.NodeID]string{7: "pt.gm", 8: "pt.tcp"}); err != nil {
		t.Fatal(err)
	}
	if r, ok := tc.nodes[1].Route(7); !ok || r != "pt.gm" {
		t.Fatalf("route 7: %q %v", r, ok)
	}
}

func TestSecondaryControlRights(t *testing.T) {
	tc := buildCluster(t, 101)
	p := primary(t, tc)
	_ = p
	s, err := NewSecondary(tc.nodes[101], 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(1, "worker"); err != nil {
		t.Fatal(err)
	}
	// Without rights, mutating commands fail; reads are allowed.
	if _, err := s.Status(1); err != nil {
		t.Fatalf("secondary status: %v", err)
	}
	if err := s.Enable(1); !errors.Is(err, ErrNoControl) {
		t.Fatalf("enable without rights: %v", err)
	}
	if err := s.RequestControl(); err != nil {
		t.Fatal(err)
	}
	if !s.HoldsControl() {
		t.Fatal("rights not recorded")
	}
	if err := s.Enable(1); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseControl(); err != nil {
		t.Fatal(err)
	}
	if s.HoldsControl() {
		t.Fatal("rights survive release")
	}
}

func TestControlRightsMutualExclusion(t *testing.T) {
	tc := buildCluster(t, 101, 102)
	if _, err := NewPrimary(tc.host); err != nil {
		t.Fatal(err)
	}
	s1, err := NewSecondary(tc.nodes[101], 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSecondary(tc.nodes[102], 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RequestControl(); err != nil {
		t.Fatal(err)
	}
	if err := s2.RequestControl(); err == nil {
		t.Fatal("second host acquired held rights")
	}
	if err := s1.ReleaseControl(); err != nil {
		t.Fatal(err)
	}
	if err := s2.RequestControl(); err != nil {
		t.Fatalf("rights not released: %v", err)
	}
	// Re-request by the current holder is idempotent.
	if err := s2.RequestControl(); err != nil {
		t.Fatalf("re-request: %v", err)
	}
}

func TestTclBinding(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	in := tclish.New(nil)
	c.Bind(in)

	script := `
set n [nodes]
if {[llength $n] != 2} { return "bad node count: $n" }
set tid [plug 1 cluster.echo 5 rate 25]
paramset 1 echo 5 rate 75
set rate [paramget 1 echo 5 rate]
quiesce all
enable all
unplug 1 $tid
systab 2 {9 pt.fake}
return "rate=$rate control=[control holding]"
`
	out, err := in.Eval(script)
	if err != nil && !strings.Contains(err.Error(), "return outside proc") {
		t.Fatal(err)
	}
	if out != "rate=75 control=1" {
		t.Fatalf("script result %q", out)
	}
	if r, ok := tc.nodes[2].Route(9); !ok || r != "pt.fake" {
		t.Fatal("systab not applied")
	}
}

func TestTclBindingErrors(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	in := tclish.New(nil)
	c.Bind(in)
	for _, script := range []string{
		`status`,
		`status notanode`,
		`status 42`,
		`plug 1 cluster.echo`,
		`plug 1 no.such.module 0`,
		`unplug 1 notanumber`,
		`enable`,
		`systab 1 {1 a b}`,
		`paramget 1 echo 0 missing`,
		`paramset 1 echo 0 k`,
		`control frob`,
	} {
		if _, err := in.Eval(script); err == nil {
			t.Errorf("Eval(%q) succeeded", script)
		}
	}
}

func TestTraceRemotely(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	if err := c.SetNodeTrace(1, true); err != nil {
		t.Fatal(err)
	}
	// Generate some traffic on node 1.
	if _, err := c.Status(1); err != nil {
		t.Fatal(err)
	}
	dump, err := c.TraceDump(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "dispatch") {
		t.Fatalf("dump %q", dump)
	}
	if err := c.ResetNodeTrace(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeTrace(1, false); err != nil {
		t.Fatal(err)
	}
	// After reset+off, only the reset/off requests themselves may appear;
	// traffic while disabled must not.
	if _, err := c.Status(1); err != nil {
		t.Fatal(err)
	}
	dump2, err := c.TraceDump(1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump2, "ExecStatusGet") {
		t.Fatalf("disabled tracer recorded traffic:\n%s", dump2)
	}
}

func TestTraceTclCommand(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)
	in := tclish.New(nil)
	c.Bind(in)
	if _, err := in.Eval(`trace 1 on; status 1`); err != nil {
		t.Fatal(err)
	}
	out, err := in.Eval(`trace 1 dump`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dispatch") {
		t.Fatalf("tcl dump %q", out)
	}
	if _, err := in.Eval(`trace 1 reset; trace 1 off`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval(`trace 1 frob`); err == nil {
		t.Fatal("bad trace action accepted")
	}
	if _, err := in.Eval(`trace 77 on`); err == nil {
		t.Fatal("trace on unknown node accepted")
	}
}

func TestMetricsRemotely(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)

	// Generate traffic on node 1 so its counters move.
	if _, err := c.Status(1); err != nil {
		t.Fatal(err)
	}
	params, err := c.Metrics(1, "")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range params {
		if p.Key == "exec.dispatched" {
			found = true
			if n, ok := p.Value.(uint64); !ok || n == 0 {
				t.Fatalf("exec.dispatched = %v (%T), want nonzero uint64", p.Value, p.Value)
			}
		}
	}
	if !found {
		t.Fatalf("exec.dispatched missing from %d params", len(params))
	}

	// Prefix filter restricts, and the tclish command renders the list.
	in := tclish.New(nil)
	c.Bind(in)
	out, err := in.Eval("metrics 1 exec.dispatched")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "exec.dispatched ") {
		t.Fatalf("tclish metrics output %q", out)
	}
	if strings.Contains(out, "pool.") {
		t.Fatalf("prefix filter leaked: %q", out)
	}
}

func TestHealthRemotely(t *testing.T) {
	tc := buildCluster(t)
	c := primary(t, tc)

	// Node 1 runs no monitor: the query must still answer.
	params, err := c.Health(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 1 || params[0].Key != "monitor" || params[0].Value != "off" {
		t.Fatalf("monitor-less node answered %v", params)
	}

	// Give node 2 a monitor and wait for its first probe verdicts.
	mon := health.New(tc.nodes[2], health.Config{
		Interval: 20 * time.Millisecond, Threshold: 2,
	})
	defer mon.Close()
	deadline := time.Now().Add(2 * time.Second)
	var report []i2o.Param
	for time.Now().Before(deadline) {
		report, err = c.Health(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(report) > 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	keys := make(map[string]any, len(report))
	for _, p := range report {
		keys[p.Key] = p.Value
	}
	if keys["monitor"] != "on" {
		t.Fatalf("monitor state in %v", report)
	}
	// Node 2 routes to 1 and 100; both should appear with a state row.
	for _, want := range []string{"peer.1.state", "peer.100.state"} {
		if _, ok := keys[want]; !ok {
			t.Fatalf("%s missing from %v", want, report)
		}
	}

	// The tclish command renders the same view.
	in := tclish.New(nil)
	c.Bind(in)
	out, err := in.Eval("health 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "monitor on") {
		t.Fatalf("tclish health output %q", out)
	}
}
