package health_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/health"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
	"xdaq/internal/transport/loopback"
	"xdaq/internal/transport/pci"
)

type testNode struct {
	exec  *executive.Executive
	agent *pta.Agent
	lb    *loopback.Endpoint
}

// buildPair wires two executives over loopback and, when withPCI is set,
// over a PCI segment as a second parallel route.
func buildPair(t *testing.T, withPCI bool) (a, b *testNode) {
	t.Helper()
	lbFabric := loopback.NewFabric()
	var seg *pci.Segment
	if withPCI {
		seg = pci.NewSegment(0)
	}
	mk := func(id i2o.NodeID) *testNode {
		e := executive.New(executive.Options{
			Name: "health", Node: id,
			RequestTimeout: time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := lbFabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetMetrics(e.Metrics())
		if err := agent.Register(ep, pta.Task); err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			pep, err := seg.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			pep.SetMetrics(e.Metrics())
			if err := agent.Register(pep, pta.Polling); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		return &testNode{exec: e, agent: agent, lb: ep}
	}
	a, b = mk(1), mk(2)
	a.exec.SetRoute(2, loopback.DefaultName)
	b.exec.SetRoute(1, loopback.DefaultName)
	return a, b
}

func plugEcho(t *testing.T, e *executive.Executive) {
	t.Helper()
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := e.Plug(d); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMonitorDetectsDeathAndRecovery(t *testing.T) {
	a, _ := buildPair(t, false)
	mon := health.New(a.exec, health.Config{
		Interval:  20 * time.Millisecond,
		Timeout:   30 * time.Millisecond,
		Threshold: 2,
	})
	defer mon.Close()

	waitFor(t, 2*time.Second, "initial up probe", func() bool {
		for _, s := range mon.Status() {
			if s.Node == 2 && s.State == health.Up {
				return true
			}
		}
		return false
	})

	// The peer goes silent: every frame out of A's endpoint is lost.
	a.lb.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.Drop, Nth: 1}))
	waitFor(t, 2*time.Second, "down transition", func() bool {
		return mon.State(2) == health.Down
	})
	if !a.exec.PeerDown(2) {
		t.Fatal("executive not told the peer is down")
	}
	reg := a.exec.Metrics()
	if reg.Counter("health.transitions.down").Value() == 0 {
		t.Fatal("down transition not counted")
	}
	if reg.Gauge("health.peersDown").Value() != 1 {
		t.Fatalf("health.peersDown = %d, want 1", reg.Gauge("health.peersDown").Value())
	}

	// Requests to the dead peer fail fast and typed.
	execTID, err := a.exec.ExecProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = a.exec.Request(&i2o.Message{
		Target: execTID, Initiator: i2o.TIDExecutive, Function: i2o.ExecStatusGet,
	})
	if !errors.Is(err, executive.ErrPeerDown) {
		t.Fatalf("request to dead peer: %v, want ErrPeerDown", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("fail-fast took %v", d)
	}

	// The fabric heals; probes keep flowing to the down peer and revive it.
	a.lb.SetFaults(nil)
	waitFor(t, 2*time.Second, "recovery", func() bool {
		return mon.State(2) == health.Up && !a.exec.PeerDown(2)
	})
	if reg.Gauge("health.peersDown").Value() != 0 {
		t.Fatal("health.peersDown gauge not decremented on recovery")
	}
}

func TestFailoverToBackupRoute(t *testing.T) {
	a, b := buildPair(t, true)
	plugEcho(t, b.exec)
	target, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}

	mon := health.New(a.exec, health.Config{
		Interval:  20 * time.Millisecond,
		Timeout:   30 * time.Millisecond,
		Threshold: 2,
		Fallback:  map[i2o.NodeID]string{2: pci.PTName},
	})
	defer mon.Close()

	// Kill the primary (loopback) path out of A only.
	a.lb.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.Drop, Nth: 1}))

	waitFor(t, 2*time.Second, "failover to pci", func() bool {
		r, _ := a.exec.Route(2)
		return r == pci.PTName
	})
	// The peer must come back Up over the fallback without ever being
	// declared down.
	waitFor(t, 2*time.Second, "up over fallback", func() bool {
		return mon.State(2) == health.Up
	})
	if a.exec.PeerDown(2) {
		t.Fatal("peer marked down despite a working fallback")
	}
	reg := a.exec.Metrics()
	if reg.Counter("health.failovers").Value() != 1 {
		t.Fatalf("health.failovers = %d, want 1", reg.Counter("health.failovers").Value())
	}
	if reg.Counter("health.transitions.down").Value() != 0 {
		t.Fatal("down transition counted despite failover")
	}

	// The pre-failover proxy now flows over PCI: calls still succeed.
	m, err := a.exec.AllocMessage(3)
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Payload, "hey")
	m.Target = target
	m.Initiator = i2o.TIDExecutive
	m.XFunction = 1
	rep, err := a.exec.Request(m)
	if err != nil {
		t.Fatalf("call after failover: %v", err)
	}
	if string(rep.Payload) != "hey" {
		t.Fatalf("echo after failover: %q", rep.Payload)
	}
	rep.Release()
}

func TestPendingRequestFailsWhenPeerDies(t *testing.T) {
	a, b := buildPair(t, false)
	// A handler that blocks the peer's single dispatch goroutine: probes
	// stop being answered, exactly like a hung node.
	block := make(chan struct{})
	d := device.New("tarpit", 0)
	d.Bind(1, func(*device.Context, *i2o.Message) error {
		<-block
		return nil
	})
	if _, err := b.exec.Plug(d); err != nil {
		t.Fatal(err)
	}
	defer close(block)
	target, err := a.exec.Discover(2, "tarpit", 0)
	if err != nil {
		t.Fatal(err)
	}

	mon := health.New(a.exec, health.Config{
		Interval:  20 * time.Millisecond,
		Timeout:   30 * time.Millisecond,
		Threshold: 3,
	})
	defer mon.Close()
	waitFor(t, 2*time.Second, "initial up probe", func() bool {
		return mon.State(2) == health.Up && a.exec.Metrics().Counter("health.probes").Value() > 0
	})

	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := a.exec.RequestContext(ctx, &i2o.Message{
			Target: target, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		})
		errc <- err
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, executive.ErrPeerDown) {
			t.Fatalf("stuck request returned %v, want ErrPeerDown", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("stuck request not failed within the detection bound")
	}
	// Detection bound: interval + threshold probes x (interval + timeout),
	// far below the 10s request deadline.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pending request failed after %v; detection too slow", d)
	}
}

func TestReportAndRemoteHealthGet(t *testing.T) {
	a, b := buildPair(t, false)
	monA := health.New(a.exec, health.Config{Interval: 20 * time.Millisecond, Threshold: 2})
	defer monA.Close()
	waitFor(t, 2*time.Second, "peer visible in report", func() bool {
		for _, p := range monA.Report() {
			if p.Key == "peer.2.state" {
				return true
			}
		}
		return false
	})

	// B has no monitor: its ExecHealthGet answers monitor=off.  Query it
	// remotely from A the way xdaqctl does.
	execTID, err := a.exec.ExecProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.exec.Request(&i2o.Message{
		Target: execTID, Initiator: i2o.TIDExecutive, Function: i2o.ExecHealthGet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range params {
		if p.Key == "monitor" && p.Value == "off" {
			found = true
		}
	}
	if !found {
		t.Fatalf("remote health report %v lacks monitor=off", params)
	}
	_ = b
}
