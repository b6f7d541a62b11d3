package gm

import (
	"bytes"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
)

// node bundles one simulated IOP for tests.
type node struct {
	exec  *executive.Executive
	agent *pta.Agent
	pt    *Transport
}

// buildPair wires two executives over a GM fabric in the given PTA mode.
func buildPair(t *testing.T, mode pta.Mode) (*node, *node) {
	t.Helper()
	fabric := NewFabric()
	routes := map[i2o.NodeID]Port{1: 1, 2: 2}

	mk := func(id i2o.NodeID, name string) *node {
		e := executive.New(executive.Options{
			Name: name, Node: id,
			RequestTimeout: 3 * time.Second,
			Logf:           func(string, ...any) {},
		})
		nic, err := fabric.Open(routes[id])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTransport(nic, e.Allocator(), Config{Routes: routes})
		if err != nil {
			t.Fatal(err)
		}
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(tr, mode); err != nil {
			t.Fatal(err)
		}
		e.SetRoute(1, PTName)
		e.SetRoute(2, PTName)
		n := &node{exec: e, agent: agent, pt: tr}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		return n
	}
	return mk(1, "gm-a"), mk(2, "gm-b")
}

func plugEcho(t *testing.T, n *node) i2o.TID {
	t.Helper()
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		if !m.Flags.Has(i2o.FlagReplyExpected) {
			return nil
		}
		rep := i2o.NewReply(m)
		buf, err := ctx.Host.Alloc(len(m.Payload))
		if err != nil {
			return err
		}
		copy(buf.Bytes(), m.Payload)
		rep.Payload = buf.Bytes()
		rep.AttachBuffer(buf)
		return ctx.Host.Send(rep)
	})
	id, err := n.exec.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func testRoundTrips(t *testing.T, mode pta.Mode) {
	a, b := buildPair(t, mode)
	plugEcho(t, b)
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 64, 4096, 65536} {
		payload := bytes.Repeat([]byte{0xA5}, size)
		m, err := a.exec.AllocMessage(size)
		if err != nil {
			t.Fatal(err)
		}
		copy(m.Payload, payload)
		m.Target = remote
		m.Initiator = i2o.TIDExecutive
		m.XFunction = 1
		rep, err := a.exec.Request(m)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(rep.Payload, payload) {
			t.Fatalf("size %d: payload mismatch (%d back)", size, len(rep.Payload))
		}
		rep.Release()
	}
	sent := a.exec.Metrics().Counter("pta.sent").Value()
	recv := b.exec.Metrics().Counter("pta.recv").Value()
	if sent == 0 || recv == 0 {
		t.Fatalf("agent counters: a pta.sent=%d, b pta.recv=%d", sent, recv)
	}
}

func TestRoundTripsTaskMode(t *testing.T)    { testRoundTrips(t, pta.Task) }
func TestRoundTripsPollingMode(t *testing.T) { testRoundTrips(t, pta.Polling) }

func TestNoBufferLeaksAcrossWire(t *testing.T) {
	a, b := buildPair(t, pta.Task)
	plugEcho(t, b)
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m, err := a.exec.AllocMessage(512)
		if err != nil {
			t.Fatal(err)
		}
		m.Target = remote
		m.Initiator = i2o.TIDExecutive
		m.XFunction = 1
		rep, err := a.exec.Request(m)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	// Everything still held should be exactly the PT's provided receive
	// blocks (32 each side by default).
	for name, n := range map[string]*node{"a": a, "b": b} {
		inUse := n.exec.Allocator().Stats().InUse
		if inUse != 32 {
			t.Errorf("node %s: %d blocks in use, want 32 provided blocks", name, inUse)
		}
	}
}

func TestStopReleasesProvidedBlocks(t *testing.T) {
	fabric := NewFabric()
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	nic, err := fabric.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(nic, e.Allocator(), Config{Provide: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Allocator().Stats().InUse; got != 8 {
		t.Fatalf("provided %d", got)
	}
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := e.Allocator().Stats().InUse; got != 0 {
		t.Fatalf("%d blocks leaked after stop", got)
	}
}

func TestSendToUnroutedNode(t *testing.T) {
	fabric := NewFabric()
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	nic, _ := fabric.Open(1)
	tr, err := NewTransport(nic, e.Allocator(), Config{Provide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	m, _ := e.AllocMessage(8)
	m.Target = 5
	if err := tr.Send(99, m); err == nil {
		t.Fatal("send to unrouted node succeeded")
	}
	// The frame's buffer must have been released on the error path: only
	// the single provided block remains.
	if got := e.Allocator().Stats().InUse; got != 1 {
		t.Fatalf("in use %d", got)
	}
}

func TestAddRoute(t *testing.T) {
	fabric := NewFabric()
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	nic, _ := fabric.Open(1)
	tr, err := NewTransport(nic, e.Allocator(), Config{Provide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	tr.AddRoute(7, 7)
	m, _ := e.AllocMessage(8)
	m.Target = 5
	// Port 7 exists in the route table but not on the fabric; the send is
	// accepted and the LANai drops it.
	if err := tr.Send(7, m); err != nil {
		t.Fatalf("send after AddRoute: %v", err)
	}
}

func TestDoubleStartRefused(t *testing.T) {
	fabric := NewFabric()
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	nic, _ := fabric.Open(1)
	tr, err := NewTransport(nic, e.Allocator(), Config{Provide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	fn := func(i2o.NodeID, *i2o.Message) error { return nil }
	if err := tr.Start(fn); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(fn); err == nil {
		t.Fatal("second start succeeded")
	}
}
