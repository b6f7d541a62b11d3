package xdaq

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func quiet(name string, id NodeID) NodeOptions {
	return NodeOptions{
		Name: name, Node: id,
		RequestTimeout: 2 * time.Second,
		Logf:           func(string, ...any) {},
	}
}

func pair(t *testing.T, connect func(a, b *Node) error) (*Node, *Node) {
	t.Helper()
	a, err := NewNode(quiet("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(quiet("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	if err := connect(a, b); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func plugEcho(t *testing.T, n *Node) {
	t.Helper()
	echo := NewDevice("echo", 0)
	echo.Bind(1, func(ctx *Context, m *Message) error {
		return ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := n.Plug(echo); err != nil {
		t.Fatal(err)
	}
}

func TestQuickstartLoopback(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error { return Connect(Loopback(), Nodes(a, b)) })
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Call(target, 1, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("reply %q", got)
	}
}

func TestQuickstartGM(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error { return Connect(GM(), Nodes(a, b)) })
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 4096)
	got, err := a.Call(target, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch over GM")
	}
}

func TestQuickstartTCP(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error {
		la, err := a.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		lb, err := b.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		la.AddPeer(2, lb.Addr())
		lb.AddPeer(1, la.Addr())
		return nil
	})
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Call(target, 1, []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("reply %q", got)
	}
}

func TestSendFireAndForget(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error { return Connect(Loopback(), Nodes(a, b)) })
	got := make(chan []byte, 1)
	sink := NewDevice("sink", 0)
	sink.Bind(2, func(ctx *Context, m *Message) error {
		got <- append([]byte(nil), m.Payload...)
		return nil
	})
	if _, err := b.Plug(sink); err != nil {
		t.Fatal(err)
	}
	target, err := a.Discover(2, "sink", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(target, 2, []byte("datagram")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "datagram" {
			t.Fatalf("payload %q", p)
		}
	case <-time.After(time.Second):
		t.Fatal("frame never arrived")
	}
}

func TestAllocatorSelection(t *testing.T) {
	for _, name := range []string{"", "table", "fixed"} {
		opts := quiet("alloc", 9)
		opts.Allocator = name
		n, err := NewNode(opts)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		want := name
		if want == "" {
			want = "table"
		}
		if got := n.Exec.Allocator().Name(); got != want {
			t.Fatalf("%q: allocator %q", name, got)
		}
		n.Close()
	}
	opts := quiet("alloc", 9)
	opts.Allocator = "bogus"
	if _, err := NewNode(opts); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus allocator: %v", err)
	}
}

func TestThreeNodeLoopbackMesh(t *testing.T) {
	var nodes []*Node
	for i := NodeID(1); i <= 3; i++ {
		n, err := NewNode(quiet("n", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes = append(nodes, n)
	}
	if err := Connect(Loopback(), Nodes(nodes...)); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		plugEcho(t, n)
	}
	// Every node calls every other node.
	for _, from := range nodes {
		for _, to := range nodes {
			if from == to {
				continue
			}
			target, err := from.Discover(to.Exec.Node(), "echo", 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := from.Call(target, 1, []byte("mesh"))
			if err != nil || string(got) != "mesh" {
				t.Fatalf("%v -> %v: %q %v", from.Exec.Node(), to.Exec.Node(), got, err)
			}
		}
	}
}

func TestQuickstartPCI(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error { return Connect(PCI(8), Nodes(a, b)) })
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Call(target, 1, []byte("over the bus"))
	if err != nil || string(got) != "over the bus" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestResolveLocal(t *testing.T) {
	n, err := NewNode(quiet("solo", 4))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	plugEcho(t, n)
	id, err := n.Resolve("echo", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Local call through the full dispatch path.
	got, err := n.Call(id, 1, []byte("local"))
	if err != nil || string(got) != "local" {
		t.Fatalf("%q %v", got, err)
	}
	if err := n.Unplug(id); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Resolve("echo", 0, 0); err == nil {
		t.Fatal("resolve after unplug")
	}
}

func TestQuickstartTCPFabric(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error { return Connect(TCP(), Nodes(a, b)) })
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Call(target, 1, []byte("tcp fabric"))
	if err != nil || string(got) != "tcp fabric" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestQuickstartShm(t *testing.T) {
	dir := t.TempDir()
	a, b := pair(t, func(a, b *Node) error { return Connect(Shm(dir), Nodes(a, b)) })
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 10_000)
	got, err := a.Call(target, 1, payload)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("shm echo failed: %v", err)
	}
}

func TestQuickstartRemote(t *testing.T) {
	a, b := pair(t, func(a, b *Node) error {
		return Connect(Remote(map[NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}), Nodes(a, b))
	})
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Call(target, 1, []byte("remote fabric"))
	if err != nil || string(got) != "remote fabric" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestConnectContextExpired(t *testing.T) {
	a, err := NewNode(quiet("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(quiet("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err = ConnectContext(ctx, Loopback(), Nodes(a, b))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired context: %v, want ErrTimeout", err)
	}
}

// joinCluster spins up one member over real sockets and registers cleanup.
func joinCluster(t *testing.T, id NodeID, seed string, shmDir string) *Cluster {
	t.Helper()
	cl, err := Join(context.Background(), ClusterConfig{
		Node:   quiet("m", id),
		Seed:   seed,
		ShmDir: shmDir,
		Health: &HealthOptions{Interval: 50 * time.Millisecond, Threshold: 2},
	})
	if err != nil {
		t.Fatalf("join node %d: %v", id, err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestJoinLeaveOverSockets(t *testing.T) {
	seed := joinCluster(t, 1, "", "")
	plugEcho(t, seed.Node())
	b := joinCluster(t, 2, seed.Listener().Addr(), "")
	c := joinCluster(t, 3, seed.Listener().Addr(), "")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, cl := range []*Cluster{seed, b, c} {
		if err := cl.WaitReady(ctx, 3); err != nil {
			t.Fatalf("node %v never saw 3 members: %v", cl.Node().Exec.Node(), err)
		}
	}

	// The seed's echo device was exported in the join exchange: resolve
	// without a Discover round trip, call across real sockets.
	target, err := c.Node().Resolve("echo", 0, 1)
	if err != nil {
		t.Fatalf("resolve exported device: %v", err)
	}
	got, err := c.Node().Call(target, 1, []byte("cross-socket"))
	if err != nil || string(got) != "cross-socket" {
		t.Fatalf("%q %v", got, err)
	}

	if err := c.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(seed.Members()) != 2 || len(b.Members()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("leave did not propagate: seed=%v b=%v", seed.Members(), b.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJoinColocatedShmRoute(t *testing.T) {
	dir := t.TempDir()
	seed := joinCluster(t, 1, "", dir)
	plugEcho(t, seed.Node())
	b := joinCluster(t, 2, seed.Listener().Addr(), dir)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.WaitReady(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Colocated members (same shm dir) route over the shm rings.
	if route, _ := b.Node().Exec.Route(1); route != "pt.shm" {
		t.Fatalf("colocated route = %q, want pt.shm", route)
	}
	if route, _ := seed.Node().Exec.Route(2); route != "pt.shm" {
		t.Fatalf("colocated route = %q, want pt.shm", route)
	}
	target, err := b.Node().Resolve("echo", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Node().Call(target, 1, []byte("over rings"))
	if err != nil || string(got) != "over rings" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestJoinDeadSeedTimesOut(t *testing.T) {
	// A dead seed must surface as ErrTimeout (or a fast dial error), not
	// hang.  Port 9 (discard) on localhost is almost certainly closed; if
	// something answers, the join still fails — just differently.
	_, err := Join(context.Background(), ClusterConfig{
		Node:    quiet("x", 9),
		Seed:    "127.0.0.1:9",
		Timeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("join via dead seed succeeded")
	}
}

func TestConnectNeedsTwoNodes(t *testing.T) {
	n, err := NewNode(quiet("solo", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := Connect(Loopback(), Nodes(n)); err == nil {
		t.Fatal("Connect accepted a single node")
	}
	if err := Connect(Loopback()); err == nil {
		t.Fatal("Connect accepted zero nodes")
	}
}

func TestConnectWithRetryAndFaults(t *testing.T) {
	// The first two frames on the fabric are refused; a retry policy of
	// three attempts hides that from the application entirely.
	in := NewFaultInjector(42).Add(FaultRule{Op: FaultError, Nth: 1, Limit: 2})
	a, b := pair(t, func(a, b *Node) error {
		return Connect(Loopback(), Nodes(a, b),
			WithFaults(in),
			WithRetry(RetryPolicy{Attempts: 3, Backoff: time.Millisecond}))
	})
	plugEcho(t, b)
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatalf("discover through injected faults: %v", err)
	}
	got, err := a.Call(target, 1, []byte("despite faults"))
	if err != nil || string(got) != "despite faults" {
		t.Fatalf("%q %v", got, err)
	}
	if n := a.Exec.Metrics().Counter("pta.retries").Value(); n == 0 {
		t.Fatal("no retries recorded despite injected errors")
	}
}
