package tcp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
)

type tcpNode struct {
	exec  *executive.Executive
	agent *pta.Agent
	tr    *Transport
}

func buildNode(t testing.TB, id i2o.NodeID) *tcpNode {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "tcp", Node: id,
		RequestTimeout: 3 * time.Second,
		Logf:           func(string, ...any) {},
	})
	tr, err := New(id, e.Allocator(), Config{Listen: "127.0.0.1:0", Metrics: e.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := pta.New(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Register(tr, pta.Task); err != nil {
		t.Fatal(err)
	}
	n := &tcpNode{exec: e, agent: agent, tr: tr}
	t.Cleanup(func() {
		agent.Close()
		e.Close()
	})
	return n
}

func connectPair(t testing.TB) (*tcpNode, *tcpNode) {
	t.Helper()
	a := buildNode(t, 1)
	b := buildNode(t, 2)
	a.tr.AddPeer(2, b.tr.Addr())
	b.tr.AddPeer(1, a.tr.Addr())
	a.exec.SetRoute(2, PTName)
	b.exec.SetRoute(1, PTName)
	return a, b
}

func TestRoundTripOverRealSockets(t *testing.T) {
	a, b := connectPair(t)
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, append([]byte(nil), m.Payload...))
	})
	if _, err := b.exec.Plug(d); err != nil {
		t.Fatal(err)
	}
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 3, 1500, 100_000} {
		payload := bytes.Repeat([]byte{0x42}, size)
		rep, err := a.exec.Request(&i2o.Message{
			Target: remote, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: payload,
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(rep.Payload, payload) {
			t.Fatalf("size %d: mismatch", size)
		}
		rep.Release()
	}
	sent := a.exec.Metrics().Counter(PTName + ".sent").Value()
	recv := b.exec.Metrics().Counter(PTName + ".recv").Value()
	if sent == 0 || recv == 0 {
		t.Fatal("stats not counted")
	}
}

func TestBidirectionalSimultaneousTraffic(t *testing.T) {
	a, b := connectPair(t)
	for _, n := range []*tcpNode{a, b} {
		d := device.New("echo", 0)
		d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
			return device.ReplyIfExpected(ctx, m, m.Payload)
		})
		if _, err := n.exec.Plug(d); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.exec.Discover(1, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	run := func(e *executive.Executive, target i2o.TID) {
		for i := 0; i < 50; i++ {
			rep, err := e.Request(&i2o.Message{
				Target: target, Initiator: i2o.TIDExecutive,
				Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
				Payload: []byte("x"),
			})
			if err != nil {
				errs <- err
				return
			}
			rep.Release()
		}
		errs <- nil
	}
	go run(a.exec, ra)
	go run(b.exec, rb)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendWithoutPeerAddress(t *testing.T) {
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	tr, err := New(1, e.Allocator(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	m := &i2o.Message{Target: 1, Function: i2o.UtilNOP}
	if err := tr.Send(9, m); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("send: %v", err)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	alloc := pool.NewTable(0)
	tr, err := New(1, alloc, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("BADMAGIC00000000")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection without handing back a hello.
	c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("server answered a bad handshake")
	}
}

func TestOversizeRecordDropsConnection(t *testing.T) {
	a, b := connectPair(t)
	// Establish a healthy connection first.
	rep, err := a.exec.Request(&i2o.Message{
		Target: mustExecProxy(t, a.exec, 2), Initiator: i2o.TIDExecutive,
		Function: i2o.ExecStatusGet,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	_ = b
	// Now connect raw and send a poisoned length prefix.
	c, err := net.Dial("tcp", b.tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := append(append([]byte{}, magic[:]...), 9, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	var back [helloSize]byte
	if _, err := readFull(c, back[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
	one := make([]byte, 1)
	if _, err := c.Read(one); err == nil {
		t.Fatal("connection survived oversize record")
	}
}

func readFull(c net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		k, err := c.Read(b[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func mustExecProxy(t *testing.T, e *executive.Executive, node i2o.NodeID) i2o.TID {
	t.Helper()
	id, err := e.ExecProxy(node)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStopIsIdempotent(t *testing.T) {
	alloc := pool.NewTable(0)
	tr, err := New(1, alloc, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	m := &i2o.Message{Target: 1, Function: i2o.UtilNOP}
	if err := tr.Send(2, m); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after stop: %v", err)
	}
}

func TestPollIsNoop(t *testing.T) {
	alloc := pool.NewTable(0)
	tr, err := New(1, alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	if n := tr.Poll(func(i2o.NodeID, *i2o.Message) error { return nil }, 5); n != 0 {
		t.Fatalf("poll %d", n)
	}
	if tr.Addr() != "" {
		t.Fatal("client-only transport has an address")
	}
}

// TestIdentify checks the address-only rendezvous handshake: a node that
// knows only "host:port" learns the peer's identity and ends up with a
// working adopted connection.
func TestIdentify(t *testing.T) {
	a := buildNode(t, 1)
	b := buildNode(t, 2)
	peer, err := a.tr.Identify(context.Background(), b.tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if peer != 2 {
		t.Fatalf("identified node %v, want 2", peer)
	}
	b.tr.AddPeer(1, a.tr.Addr())
	a.exec.SetRoute(2, PTName)
	b.exec.SetRoute(1, PTName)
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, append([]byte(nil), m.Payload...))
	})
	if _, err := b.exec.Plug(d); err != nil {
		t.Fatal(err)
	}
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.exec.Request(&i2o.Message{
		Target: remote, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("who"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Payload) != "who" {
		t.Fatalf("payload = %q", rep.Payload)
	}
	rep.Recycle()

	// Identifying ourselves is an error, not a half-adopted connection.
	if _, err := a.tr.Identify(context.Background(), a.tr.Addr()); err == nil {
		t.Fatal("self-identify succeeded")
	}
}
