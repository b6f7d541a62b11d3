package pta

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
)

// fakePT is a scriptable transport.
type fakePT struct {
	name    string
	mu      sync.Mutex
	sent    []*i2o.Message
	pending []fakeFrame // frames Poll will deliver
	started atomic.Bool
	stopped atomic.Bool
	polls   atomic.Int64 // Poll calls so far
	sendErr error
}

type fakeFrame struct {
	src i2o.NodeID
	m   *i2o.Message
}

func (f *fakePT) Name() string { return f.name }

func (f *fakePT) Send(dst i2o.NodeID, m *i2o.Message) error {
	if f.sendErr != nil {
		m.Release()
		return f.sendErr
	}
	f.mu.Lock()
	f.sent = append(f.sent, m)
	f.mu.Unlock()
	return nil
}

func (f *fakePT) Start(Deliver) error { f.started.Store(true); return nil }

func (f *fakePT) Poll(fn Deliver, budget int) int {
	f.polls.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for n < budget && len(f.pending) > 0 {
		fr := f.pending[0]
		f.pending = f.pending[1:]
		if err := fn(fr.src, fr.m); err != nil {
			return n
		}
		n++
	}
	return n
}

func (f *fakePT) Stop() error { f.stopped.Store(true); return nil }

func (f *fakePT) enqueue(src i2o.NodeID, m *i2o.Message) {
	f.mu.Lock()
	f.pending = append(f.pending, fakeFrame{src, m})
	f.mu.Unlock()
}

func newAgent(t *testing.T) (*executive.Executive, *Agent) {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "pta-test", Node: 1,
		RequestTimeout: time.Second,
		Logf:           func(string, ...any) {},
	})
	a, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		e.Close()
	})
	return e, a
}

// count reads one of the agent's pta.* counters from the executive's
// metrics registry.
func count(a *Agent, name string) uint64 {
	return a.exec.Metrics().Counter("pta." + name).Value()
}

// suspend sets a transport's "suspended" parameter the way an operator
// does: a UtilParamsSet frame to the transport's device.
func suspend(t *testing.T, a *Agent, route string, on bool) {
	t.Helper()
	tid, err := a.exec.Resolve(route, 0, i2o.NodeNone)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := i2o.EncodeParams([]i2o.Param{{Key: "suspended", Value: on}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.exec.Request(&i2o.Message{
		Target: tid, Initiator: i2o.TIDExecutive,
		Function: i2o.UtilParamsSet, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
}

func TestAgentPlugsDeviceAndRoutes(t *testing.T) {
	e, a := newAgent(t)
	if _, err := e.Resolve("pta", 0, i2o.NodeNone); err != nil {
		t.Fatal("agent device not plugged")
	}
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	if !pt.started.Load() {
		t.Fatal("task transport not started")
	}
	if _, err := e.Resolve("pt.fake", 0, i2o.NodeNone); err != nil {
		t.Fatal("transport device not plugged")
	}
	routes := a.Routes()
	if len(routes) != 1 || routes[0] != "pt.fake" {
		t.Fatalf("routes %v", routes)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	_, a := newAgent(t)
	if err := a.Register(&fakePT{name: "pt.x"}, Task); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(&fakePT{name: "pt.x"}, Task); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup: %v", err)
	}
}

func TestForward(t *testing.T) {
	_, a := newAgent(t)
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	m := &i2o.Message{Target: 5, Function: i2o.UtilNOP}
	if err := a.Forward("pt.fake", 2, m); err != nil {
		t.Fatal(err)
	}
	if len(pt.sent) != 1 || count(a, "sent") != 1 {
		t.Fatalf("sent %d, pta.sent %d", len(pt.sent), count(a, "sent"))
	}
	if err := a.Forward("pt.none", 2, &i2o.Message{Target: 5, Function: i2o.UtilNOP}); !errors.Is(err, ErrUnknownRoute) {
		t.Fatalf("unknown route: %v", err)
	}
	if count(a, "errors") != 1 {
		t.Fatalf("pta.errors %d", count(a, "errors"))
	}
}

func TestForwardSendError(t *testing.T) {
	_, a := newAgent(t)
	boom := errors.New("wire down")
	pt := &fakePT{name: "pt.bad", sendErr: boom}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	if err := a.Forward("pt.bad", 2, &i2o.Message{Target: 5, Function: i2o.UtilNOP}); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if count(a, "errors") != 1 {
		t.Fatalf("pta.errors %d", count(a, "errors"))
	}
}

func TestSuspendBlocksForward(t *testing.T) {
	_, a := newAgent(t)
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	suspend(t, a, "pt.fake", true)
	err := a.Forward("pt.fake", 2, &i2o.Message{Target: 5, Function: i2o.UtilNOP})
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended forward: %v", err)
	}
	suspend(t, a, "pt.fake", false)
	if err := a.Forward("pt.fake", 2, &i2o.Message{Target: 5, Function: i2o.UtilNOP}); err != nil {
		t.Fatalf("resumed forward: %v", err)
	}
}

func TestSuspendViaParams(t *testing.T) {
	e, a := newAgent(t)
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Polling); err != nil {
		t.Fatal(err)
	}
	ptTID, err := e.Resolve("pt.fake", 0, i2o.NodeNone)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := i2o.EncodeParams([]i2o.Param{{Key: "suspended", Value: true}})
	rep, err := e.Request(&i2o.Message{
		Target: ptTID, Initiator: i2o.TIDExecutive,
		Function: i2o.UtilParamsSet, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if err := a.Forward("pt.fake", 2, &i2o.Message{Target: 5, Function: i2o.UtilNOP}); !errors.Is(err, ErrSuspended) {
		t.Fatalf("params suspend not applied: %v", err)
	}
}

func TestPollingDelivery(t *testing.T) {
	e, a := newAgent(t)
	pt := &fakePT{name: "pt.poll"}
	if err := a.Register(pt, Polling); err != nil {
		t.Fatal(err)
	}
	// A frame for the executive: ExecStatusGet without reply expectation
	// just bumps the dispatch counter.
	before := e.Stats().Dispatched
	pt.enqueue(2, &i2o.Message{Target: i2o.TIDExecutive, Function: i2o.UtilNOP})
	deadline := time.After(2 * time.Second)
	for e.Stats().Dispatched == before {
		select {
		case <-deadline:
			t.Fatal("polled frame never dispatched")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if count(a, "recv") != 1 {
		t.Fatalf("pta.recv %d", count(a, "recv"))
	}
}

func TestSuspendedPollingPTNotScanned(t *testing.T) {
	_, a := newAgent(t)
	pt := &fakePT{name: "pt.poll"}
	probe := &fakePT{name: "pt.probe"}
	for _, p := range []*fakePT{pt, probe} {
		if err := a.Register(p, Polling); err != nil {
			t.Fatal(err)
		}
	}
	suspend(t, a, "pt.poll", true)
	// A scan that took its snapshot before the suspension landed may still
	// poll pt.poll.  The probe is polled once per scan, so the second probe
	// poll from here on belongs to a scan that started after that one ended.
	after := probe.polls.Load() + 2
	deadline := time.Now().Add(2 * time.Second)
	for probe.polls.Load() < after {
		if time.Now().After(deadline) {
			t.Fatal("scan loop stopped polling the probe")
		}
		time.Sleep(100 * time.Microsecond)
	}
	pt.enqueue(2, &i2o.Message{Target: i2o.TIDExecutive, Function: i2o.UtilNOP})
	time.Sleep(30 * time.Millisecond)
	if got := count(a, "recv"); got != 0 {
		t.Fatalf("suspended PT delivered %d frames", got)
	}
}

// TestResumeWakesParkedPollLoop pins the scan loop's parking behaviour:
// with every polling transport suspended the loop blocks (it must not
// burn the core spinning — see pollLoop), and resuming the transport
// wakes it so pending frames flow again.
func TestResumeWakesParkedPollLoop(t *testing.T) {
	_, a := newAgent(t)
	pt := &fakePT{name: "pt.poll"}
	if err := a.Register(pt, Polling); err != nil {
		t.Fatal(err)
	}
	suspend(t, a, "pt.poll", true)
	// Give the loop time to observe the empty polling set and park.
	time.Sleep(10 * time.Millisecond)
	pt.enqueue(2, &i2o.Message{Target: i2o.TIDExecutive, Function: i2o.UtilNOP})
	suspend(t, a, "pt.poll", false)
	deadline := time.After(2 * time.Second)
	for count(a, "recv") == 0 {
		select {
		case <-deadline:
			t.Fatal("resumed PT never scanned again")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestReturnProxyRewritesInitiator(t *testing.T) {
	e, a := newAgent(t)
	pt := &fakePT{name: "pt.poll"}
	if err := a.Register(pt, Polling); err != nil {
		t.Fatal(err)
	}
	// A remote frame whose initiator is TiD 0x42 on node 7.
	pt.enqueue(7, &i2o.Message{
		Target: i2o.TIDExecutive, Initiator: 0x42, Function: i2o.UtilNOP,
	})
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := e.Table().Resolve("@peer:pt.poll", 0x42, 7); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("return proxy never created")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestCloseStopsTransports(t *testing.T) {
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	a, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // idempotent
	if !pt.stopped.Load() {
		t.Fatal("transport not stopped")
	}
}

func TestModeString(t *testing.T) {
	if Task.String() == Polling.String() {
		t.Fatal("mode strings")
	}
}
