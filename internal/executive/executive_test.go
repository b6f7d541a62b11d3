package executive

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/probe"
	"xdaq/internal/tid"
)

func quietOpts(name string, node i2o.NodeID) Options {
	return Options{
		Name:           name,
		Node:           node,
		RequestTimeout: 2 * time.Second,
		Logf:           func(string, ...any) {},
	}
}

func newExec(t *testing.T, name string, node i2o.NodeID) *Executive {
	t.Helper()
	e := New(quietOpts(name, node))
	t.Cleanup(e.Close)
	return e
}

// echoDevice replies to xfunc 1 with its request payload.
func echoDevice(instance int) *device.Device {
	d := device.New("echo", instance)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, append([]byte(nil), m.Payload...))
	})
	return d
}

// deviceAt finds the device plugged at id among the executive's devices.
func deviceAt(e *Executive, id i2o.TID) (*device.Device, bool) {
	for _, d := range e.Devices() {
		if d.TID() == id {
			return d, true
		}
	}
	return nil, false
}

// requestWithin is Request with a per-call deadline.
func requestWithin(e *Executive, m *i2o.Message, d time.Duration) (*i2o.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return e.RequestContext(ctx, m)
}

// unregisterModule removes a factory a test registered.
func unregisterModule(name string) {
	regMu.Lock()
	delete(registry, name)
	regMu.Unlock()
}

func TestSelfDeviceClaimsTID1(t *testing.T) {
	e := newExec(t, "a", 1)
	d, ok := deviceAt(e, i2o.TIDExecutive)
	if !ok || d.Class() != "executive" {
		t.Fatalf("self device: %v %v", d, ok)
	}
	entry, ok := e.Table().Lookup(i2o.TIDExecutive)
	if !ok || entry.Class != "executive" {
		t.Fatalf("table entry %+v", entry)
	}
}

func TestPlugUnplug(t *testing.T) {
	e := newExec(t, "a", 1)
	d := echoDevice(0)
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.TID() != id || d.State() != device.Operational {
		t.Fatalf("tid=%v state=%v", d.TID(), d.State())
	}
	if got, ok := deviceAt(e, id); !ok || got != d {
		t.Fatal("Device lookup")
	}
	if len(e.Devices()) != 2 { // self + echo
		t.Fatalf("devices %d", len(e.Devices()))
	}
	if err := e.Unplug(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := deviceAt(e, id); ok {
		t.Fatal("device survives unplug")
	}
	if err := e.Unplug(id); err == nil {
		t.Fatal("double unplug")
	}
	if err := e.Unplug(i2o.TIDExecutive); err == nil {
		t.Fatal("unplugged the executive itself")
	}
	if _, ok := deviceAt(e, i2o.TIDExecutive); !ok {
		t.Fatal("failed self-unplug removed the self device")
	}
}

func TestPlugFailureRollsBack(t *testing.T) {
	e := newExec(t, "a", 1)
	d := device.New("bad", 0)
	d.OnPlugged = func(*device.Context) error { return errors.New("nope") }
	if _, err := e.Plug(d); err == nil {
		t.Fatal("plug succeeded")
	}
	if e.Table().Len() != 1 {
		t.Fatalf("table len %d after failed plug", e.Table().Len())
	}
}

func TestRequestReplyRoundTrip(t *testing.T) {
	e := newExec(t, "a", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	req := &i2o.Message{
		Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("ping"),
	}
	rep, err := e.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if string(rep.Payload) != "ping" || !rep.Flags.Has(i2o.FlagReply) {
		t.Fatalf("reply %v %q", rep, rep.Payload)
	}
	s := e.Stats()
	if s.Dispatched == 0 || s.Replies != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRequestTimeout(t *testing.T) {
	e := newExec(t, "a", 1)
	d := device.New("sink", 0)
	d.Bind(1, func(*device.Context, *i2o.Message) error { return nil }) // never replies
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	_, err = requestWithin(e, req, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout: %v", err)
	}
}

func TestRequestToUnknownFunctionFails(t *testing.T) {
	e := newExec(t, "a", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 99,
	}
	_, err = e.Request(req)
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailUnknownFunction {
		t.Fatalf("err %v", err)
	}
}

func TestSendToUnknownTarget(t *testing.T) {
	e := newExec(t, "a", 1)
	m := &i2o.Message{Target: 0x500, Function: i2o.UtilNOP}
	if err := e.Send(m); !errors.Is(err, tid.ErrUnknown) {
		t.Fatalf("send: %v", err)
	}
}

func TestQuiescedDeviceRefusesPrivate(t *testing.T) {
	e := newExec(t, "a", 1)
	d := echoDevice(0)
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	d.SetState(device.Quiesced)
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	_, err = e.Request(req)
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailDeviceState {
		t.Fatalf("err %v", err)
	}
}

func TestPanicFaultsDevice(t *testing.T) {
	e := newExec(t, "a", 1)
	d := device.New("boom", 0)
	d.Bind(1, func(*device.Context, *i2o.Message) error { panic("kaboom") })
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	_, err = e.Request(req)
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailAborted {
		t.Fatalf("err %v", err)
	}
	if d.State() != device.Faulted {
		t.Fatalf("state %v", d.State())
	}
}

func TestWatchdogTerminatesSlowHandler(t *testing.T) {
	opts := quietOpts("wd", 1)
	opts.Watchdog = 20 * time.Millisecond
	e := New(opts)
	defer e.Close()
	release := make(chan struct{})
	d := device.New("slow", 0)
	d.Bind(1, func(*device.Context, *i2o.Message) error {
		<-release
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	_, err = e.Request(req)
	close(release)
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailAborted {
		t.Fatalf("err %v", err)
	}
	if d.State() != device.Faulted {
		t.Fatalf("state %v", d.State())
	}
}

// bridge wires executives directly, standing in for a peer transport.
type bridge struct {
	src   i2o.NodeID
	peers map[i2o.NodeID]*Executive
}

func (b *bridge) Forward(route string, dst i2o.NodeID, m *i2o.Message) error {
	p := b.peers[dst]
	if p == nil {
		m.Release()
		return fmt.Errorf("bridge: no peer %v", dst)
	}
	return p.InjectFrom(b.src, route, m)
}

// twoNodes builds executives on nodes 1 and 2 connected by bridges over a
// route named "bridge".
func twoNodes(t *testing.T) (*Executive, *Executive) {
	t.Helper()
	a := newExec(t, "a", 1)
	b := newExec(t, "b", 2)
	peers := map[i2o.NodeID]*Executive{1: a, 2: b}
	a.SetRouter(&bridge{src: 1, peers: peers})
	b.SetRouter(&bridge{src: 2, peers: peers})
	a.SetRoute(2, "bridge")
	b.SetRoute(1, "bridge")
	return a, b
}

func TestPeerOperationRequestReply(t *testing.T) {
	a, b := twoNodes(t)
	if _, err := b.Plug(echoDevice(0)); err != nil {
		t.Fatal(err)
	}
	remote, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := a.Table().Lookup(remote)
	if !ok || entry.Kind != tid.Proxy || entry.Node != 2 {
		t.Fatalf("proxy entry %+v", entry)
	}
	req := &i2o.Message{
		Target: remote, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("cross-node"),
	}
	rep, err := a.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if string(rep.Payload) != "cross-node" {
		t.Fatalf("payload %q", rep.Payload)
	}
	if a.Stats().Forwarded == 0 || b.Stats().Dispatched == 0 {
		t.Fatalf("stats a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestDiscoverUnknownDevice(t *testing.T) {
	a, _ := twoNodes(t)
	if _, err := a.Discover(2, "nonexistent", 0); !errors.Is(err, tid.ErrUnknown) {
		t.Fatalf("discover: %v", err)
	}
}

func TestDiscoverIsIdempotent(t *testing.T) {
	a, b := twoNodes(t)
	if _, err := b.Plug(echoDevice(3)); err != nil {
		t.Fatal(err)
	}
	id1, err := a.Discover(2, "echo", 3)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := a.Discover(2, "echo", 3)
	if err != nil || id1 != id2 {
		t.Fatalf("ids %v %v err %v", id1, id2, err)
	}
}

func TestForwardWithoutRouter(t *testing.T) {
	e := newExec(t, "a", 1)
	entry, err := e.Table().AllocProxy("x", 0, 9, "nowhere", 5)
	if err != nil {
		t.Fatal(err)
	}
	m := &i2o.Message{Target: entry.TID, Function: i2o.UtilNOP}
	if err := e.Send(m); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("send: %v", err)
	}
}

func TestResolve(t *testing.T) {
	e := newExec(t, "a", 7)
	id, err := e.Plug(echoDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	// Local resolution, by explicit node and by NodeNone.
	for _, node := range []i2o.NodeID{7, i2o.NodeNone} {
		got, err := e.Resolve("echo", 4, node)
		if err != nil || got != id {
			t.Fatalf("resolve node %v: %v %v", node, got, err)
		}
	}
	if _, err := e.Resolve("echo", 5, i2o.NodeNone); err == nil {
		t.Fatal("resolved missing instance")
	}
	if _, err := e.Resolve("echo", 4, 99); err == nil {
		t.Fatal("resolved undiscovered remote")
	}
}

func execRequest(t *testing.T, e *Executive, target i2o.TID, fn i2o.Function, payload []byte) *i2o.Message {
	t.Helper()
	rep, err := e.Request(&i2o.Message{
		Priority: i2o.PriorityHigh, Target: target, Initiator: i2o.TIDExecutive,
		Function: fn, Payload: payload,
	})
	if err != nil {
		t.Fatalf("request %v: %v", fn, err)
	}
	return rep
}

func TestExecStatusGet(t *testing.T) {
	e := newExec(t, "statusbox", 3)
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecStatusGet, nil)
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for _, p := range params {
		got[p.Key] = p.Value
	}
	if got["name"] != "statusbox" || got["node"] != int64(3) || got["state"] != "operational" {
		t.Fatalf("status %v", got)
	}
}

func TestExecHrtGet(t *testing.T) {
	e := newExec(t, "a", 1)
	id, err := e.Plug(echoDevice(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecHrtGet, nil)
	defer rep.Release()
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range params {
		if p.Key == "echo#2" && p.Value == int64(id) {
			found = true
		}
		if strings.HasPrefix(p.Key, "@") {
			t.Fatalf("HRT leaked proxy entry %q", p.Key)
		}
	}
	if !found {
		t.Fatalf("HRT %v missing echo#2", params)
	}
}

func TestExecPluginAndUnplugMessages(t *testing.T) {
	RegisterModule("test.echo", func(instance int, _ []i2o.Param) (*device.Device, error) {
		return echoDevice(instance), nil
	})
	defer unregisterModule("test.echo")

	e := newExec(t, "a", 1)
	payload, err := i2o.EncodeParams([]i2o.Param{
		{Key: "module", Value: "test.echo"},
		{Key: "instance", Value: int64(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecPlugin, payload)
	params, _ := i2o.DecodeParams(rep.Payload)
	rep.Release()
	if len(params) != 1 || params[0].Key != "tid" {
		t.Fatalf("plugin reply %v", params)
	}
	plugged := i2o.TID(params[0].Value.(int64))
	if _, ok := deviceAt(e, plugged); !ok {
		t.Fatal("plugged device not registered")
	}

	unplug, _ := i2o.EncodeParams([]i2o.Param{{Key: "tid", Value: int64(plugged)}})
	rep = execRequest(t, e, i2o.TIDExecutive, i2o.ExecUnplug, unplug)
	rep.Release()
	if _, ok := deviceAt(e, plugged); ok {
		t.Fatal("device survives ExecUnplug")
	}
}

func TestExecPluginUnknownModule(t *testing.T) {
	e := newExec(t, "a", 1)
	payload, _ := i2o.EncodeParams([]i2o.Param{{Key: "module", Value: "no.such"}})
	_, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecPlugin, Payload: payload,
	})
	if err == nil {
		t.Fatal("unknown module plugged")
	}
}

func TestExecSysQuiesceEnable(t *testing.T) {
	e := newExec(t, "a", 1)
	d := echoDevice(0)
	if _, err := e.Plug(d); err != nil {
		t.Fatal(err)
	}
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecSysQuiesce, nil)
	rep.Release()
	if e.State() != device.Quiesced || d.State() != device.Quiesced {
		t.Fatalf("states %v %v", e.State(), d.State())
	}
	rep = execRequest(t, e, i2o.TIDExecutive, i2o.ExecSysEnable, nil)
	rep.Release()
	if e.State() != device.Operational || d.State() != device.Operational {
		t.Fatalf("states %v %v", e.State(), d.State())
	}
}

func TestExecSysClearResetsStats(t *testing.T) {
	e := newExec(t, "a", 1)
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecStatusGet, nil)
	rep.Release()
	if e.Stats().Dispatched == 0 {
		t.Fatal("no activity recorded")
	}
	rep = execRequest(t, e, i2o.TIDExecutive, i2o.ExecSysClear, nil)
	rep.Release()
	// The clear request itself is dispatched after the reset, so the
	// counter is small but the pre-clear total is gone.
	if got := e.Stats().Dispatched; got > 2 {
		t.Fatalf("dispatched %d after clear", got)
	}
}

func TestExecSysTabSet(t *testing.T) {
	e := newExec(t, "a", 1)
	payload, _ := i2o.EncodeParams([]i2o.Param{
		{Key: "5", Value: "pt.tcp"},
		{Key: "6", Value: "pt.gm"},
	})
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecSysTabSet, payload)
	rep.Release()
	if r, ok := e.Route(5); !ok || r != "pt.tcp" {
		t.Fatalf("route 5: %v %v", r, ok)
	}
	if r, ok := e.Route(6); !ok || r != "pt.gm" {
		t.Fatalf("route 6: %v %v", r, ok)
	}

	bad, _ := i2o.EncodeParams([]i2o.Param{{Key: "notanode", Value: "x"}})
	if _, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecSysTabSet, Payload: bad,
	}); err == nil {
		t.Fatal("bad system table accepted")
	}
}

func TestExecOutboundInit(t *testing.T) {
	e := newExec(t, "a", 1)
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecOutboundInit, nil)
	rep.Release()
}

func TestTimerFiresEventFrame(t *testing.T) {
	e := newExec(t, "a", 1)
	fired := make(chan *i2o.Message, 1)
	d := device.New("timer-sink", 0)
	d.Bind(XFuncTimerExpired, func(ctx *device.Context, m *i2o.Message) error {
		fired <- &i2o.Message{TransactionContext: m.TransactionContext, Payload: append([]byte(nil), m.Payload...)}
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	timerID, _ := e.After(10*time.Millisecond, id, []byte("tick"))
	select {
	case m := <-fired:
		if m.TransactionContext != timerID || string(m.Payload) != "tick" {
			t.Fatalf("timer frame %v %q", m.TransactionContext, m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("timer never fired")
	}
}

func TestTimerCancel(t *testing.T) {
	e := newExec(t, "a", 1)
	fired := make(chan struct{}, 1)
	d := device.New("timer-sink", 0)
	d.Bind(XFuncTimerExpired, func(*device.Context, *i2o.Message) error {
		fired <- struct{}{}
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	_, cancel := e.After(50*time.Millisecond, id, nil)
	if !cancel() {
		t.Fatal("cancel reported not pending")
	}
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(120 * time.Millisecond):
	}
	if cancel() {
		t.Fatal("second cancel succeeded")
	}
}

func TestTimerMessages(t *testing.T) {
	e := newExec(t, "a", 1)
	set, _ := i2o.EncodeParams([]i2o.Param{
		{Key: "after_us", Value: int64(3600 * 1e6)}, // far future; we cancel it
	})
	rep := execRequest(t, e, i2o.TIDExecutive, i2o.ExecTimerSet, set)
	params, _ := i2o.DecodeParams(rep.Payload)
	rep.Release()
	if len(params) != 1 || params[0].Key != "timer" {
		t.Fatalf("timer set reply %v", params)
	}
	cancel, _ := i2o.EncodeParams([]i2o.Param{{Key: "timer", Value: params[0].Value}})
	rep = execRequest(t, e, i2o.TIDExecutive, i2o.ExecTimerCancel, cancel)
	params, _ = i2o.DecodeParams(rep.Payload)
	rep.Release()
	if len(params) != 1 || params[0].Value != true {
		t.Fatalf("timer cancel reply %v", params)
	}
}

func TestAllocMessageAndFree(t *testing.T) {
	e := newExec(t, "a", 1)
	m, err := e.AllocMessage(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != 128 || m.Buffer() == nil {
		t.Fatalf("payload %d buffer %v", len(m.Payload), m.Buffer())
	}
	e.Free(m)
	if e.Allocator().Stats().InUse != 0 {
		t.Fatal("message buffer leaked")
	}
}

func TestZeroCopyRoundTripReleasesBuffers(t *testing.T) {
	e := newExec(t, "a", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m, err := e.AllocMessage(1024)
		if err != nil {
			t.Fatal(err)
		}
		m.Target = id
		m.Initiator = i2o.TIDExecutive
		m.XFunction = 1
		copy(m.Payload, "payload")
		rep, err := e.Request(m)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	if in := e.Allocator().Stats().InUse; in != 0 {
		t.Fatalf("%d buffers leaked", in)
	}
}

func TestProbesCollectDuringDispatch(t *testing.T) {
	reg := &probe.Registry{}
	opts := quietOpts("probed", 1)
	opts.Probes = reg
	e := New(opts)
	defer e.Close()
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	probe.Enable(true)
	defer probe.Enable(false)
	req := &i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	rep, err := e.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	for _, name := range []string{"exec.demux", "exec.upcall", "exec.app", "exec.release"} {
		if reg.Point(name).Stats().Count == 0 {
			t.Fatalf("probe %s collected nothing", name)
		}
	}
}

func TestCloseIsIdempotentAndDrains(t *testing.T) {
	e := New(quietOpts("a", 1))
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.AllocMessage(64)
	if err != nil {
		t.Fatal(err)
	}
	m.Target = id
	m.XFunction = 1
	// Close the executive; a queued frame may or may not be dispatched
	// before the loop stops, but its buffer must be released either way.
	if err := e.Send(m); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if in := e.Allocator().Stats().InUse; in != 0 {
		t.Fatalf("%d buffers leaked at close", in)
	}
	if err := e.Send(&i2o.Message{Target: id, Function: i2o.UtilNOP}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestModulesRegistry(t *testing.T) {
	RegisterModule("zz.mod", func(int, []i2o.Param) (*device.Device, error) {
		return device.New("zz", 0), nil
	})
	defer unregisterModule("zz.mod")
	found := false
	for _, name := range Modules() {
		if name == "zz.mod" {
			found = true
		}
	}
	if !found {
		t.Fatal("module not listed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		RegisterModule("zz.mod", nil)
	}()
	if _, err := Instantiate("missing", 0, nil); err == nil {
		t.Fatal("instantiate missing module")
	}
}
