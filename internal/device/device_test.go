package device

import (
	"errors"
	"fmt"
	"testing"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
)

// fakeHost records sent frames.
type fakeHost struct {
	alloc pool.Allocator
	sent  []*i2o.Message
	logs  []string
}

func newFakeHost() *fakeHost { return &fakeHost{alloc: pool.NewTable(0)} }

func (h *fakeHost) Node() i2o.NodeID                  { return 1 }
func (h *fakeHost) Alloc(n int) (*pool.Buffer, error) { return h.alloc.Alloc(n) }
func (h *fakeHost) Send(m *i2o.Message) error         { h.sent = append(h.sent, m); return nil }
func (h *fakeHost) Request(*i2o.Message) (*i2o.Message, error) {
	return nil, errors.New("fakeHost: no request support")
}
func (h *fakeHost) Resolve(string, int, i2o.NodeID) (i2o.TID, error) {
	return i2o.TIDNone, errors.New("fakeHost: no resolve support")
}
func (h *fakeHost) Logf(format string, args ...any) {
	h.logs = append(h.logs, fmt.Sprintf(format, args...))
}

func plugged(t *testing.T, d *Device) *fakeHost {
	t.Helper()
	h := newFakeHost()
	if err := d.Plugged(h, 0x10); err != nil {
		t.Fatal(err)
	}
	d.SetState(Operational)
	return h
}

// dispatch runs the handler for m the way the executive's dispatch loop
// does: Lookup selects it, then it is called with the device context.
func dispatch(d *Device, m *i2o.Message) error {
	h, ctx, err := d.Lookup(m)
	if err != nil {
		return err
	}
	return h(ctx, m)
}

// param reads one parameter back, nil when it is missing.
func param(d *Device, key string) any {
	v, _ := d.Params().Get(key)
	return v
}

func privateFrame(x uint16) *i2o.Message {
	return &i2o.Message{
		Flags: i2o.FlagReplyExpected, Priority: i2o.PriorityNormal,
		Target: 0x10, Initiator: 0x20,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: x,
	}
}

func TestBindAndDispatch(t *testing.T) {
	d := New("echo", 0)
	called := false
	d.Bind(1, func(ctx *Context, m *i2o.Message) error {
		called = true
		return ReplyIfExpected(ctx, m, []byte("pong"))
	})
	h := plugged(t, d)
	if err := dispatch(d, privateFrame(1)); err != nil {
		t.Fatal(err)
	}
	if !called || len(h.sent) != 1 {
		t.Fatalf("called=%v sent=%d", called, len(h.sent))
	}
	rep := h.sent[0]
	if !rep.Flags.Has(i2o.FlagReply) || string(rep.Payload) != "pong" || rep.Target != 0x20 {
		t.Fatalf("reply %v payload %q", rep, rep.Payload)
	}
}

func TestDispatchUnknownPrivate(t *testing.T) {
	d := New("echo", 0)
	plugged(t, d)
	if err := dispatch(d, privateFrame(99)); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("unknown xfunc: %v", err)
	}
}

func TestDispatchWrongOrg(t *testing.T) {
	d := New("echo", 0)
	d.Bind(1, func(*Context, *i2o.Message) error { return nil })
	plugged(t, d)
	m := privateFrame(1)
	m.Org = 0x1111
	if err := dispatch(d, m); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("foreign org: %v", err)
	}
}

func TestDispatchBeforePlug(t *testing.T) {
	d := New("echo", 0)
	if err := dispatch(d, privateFrame(1)); !errors.Is(err, ErrNotPlugged) {
		t.Fatalf("unplugged dispatch: %v", err)
	}
}

func TestDefaultNOP(t *testing.T) {
	d := New("echo", 0)
	h := plugged(t, d)
	m := privateFrame(0)
	m.Function = i2o.UtilNOP
	if err := dispatch(d, m); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 || !h.sent[0].Flags.Has(i2o.FlagReply) {
		t.Fatal("NOP default must reply")
	}
	// Without FlagReplyExpected there must be no reply.
	m2 := privateFrame(0)
	m2.Function = i2o.UtilNOP
	m2.Flags = 0
	if err := dispatch(d, m2); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatal("unsolicited reply sent")
	}
}

func TestDefaultParamsGetSet(t *testing.T) {
	d := New("cfg", 2)
	h := plugged(t, d)
	d.Params().Set("rate", int64(100))
	// A value outside the wire types is stored as its fmt.Sprint form.
	d.Params().Set("weird", struct{ X int }{1})
	if param(d, "weird") != "{1}" {
		t.Fatalf("coerced param = %#v", param(d, "weird"))
	}

	// Set "rate" and a new key via UtilParamsSet.
	payload, err := i2o.EncodeParams([]i2o.Param{
		{Key: "rate", Value: int64(250)},
		{Key: "mode", Value: "burst"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := privateFrame(0)
	set.Function = i2o.UtilParamsSet
	set.Payload = payload
	if err := dispatch(d, set); err != nil {
		t.Fatal(err)
	}
	if param(d, "rate") != int64(250) || param(d, "mode") != "burst" {
		t.Fatalf("params after set: %v %v", param(d, "rate"), param(d, "mode"))
	}

	// Read selected keys back.
	keys, err := i2o.EncodeKeys([]string{"rate", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	get := privateFrame(0)
	get.Function = i2o.UtilParamsGet
	get.Payload = keys
	if err := dispatch(d, get); err != nil {
		t.Fatal(err)
	}
	rep := h.sent[len(h.sent)-1]
	params, err := i2o.DecodeParams(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 1 || params[0].Key != "rate" || params[0].Value != int64(250) {
		t.Fatalf("get reply %v", params)
	}

	// Reading all parameters includes the standard ones and state.
	getAll := privateFrame(0)
	getAll.Function = i2o.UtilParamsGet
	getAll.Payload, _ = i2o.EncodeKeys(nil)
	if err := dispatch(d, getAll); err != nil {
		t.Fatal(err)
	}
	rep = h.sent[len(h.sent)-1]
	params, _ = i2o.DecodeParams(rep.Payload)
	found := map[string]any{}
	for _, p := range params {
		found[p.Key] = p.Value
	}
	if found["class"] != "cfg" || found["instance"] != int64(2) || found["state"] != "operational" {
		t.Fatalf("all params %v", found)
	}
}

func TestParamsOnSetCallback(t *testing.T) {
	d := New("cfg", 0)
	plugged(t, d)
	var seen []i2o.Param
	d.Params().OnSet(func(ps []i2o.Param) { seen = ps })
	payload, _ := i2o.EncodeParams([]i2o.Param{{Key: "k", Value: "v"}})
	set := privateFrame(0)
	set.Function = i2o.UtilParamsSet
	set.Payload = payload
	if err := dispatch(d, set); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Key != "k" {
		t.Fatalf("OnSet saw %v", seen)
	}
}

func TestEnableQuiesceStateMachine(t *testing.T) {
	d := New("s", 0)
	h := plugged(t, d)
	q := privateFrame(0)
	q.Function = i2o.ExecSysQuiesce
	if err := dispatch(d, q); err != nil {
		t.Fatal(err)
	}
	if d.State() != Quiesced {
		t.Fatalf("state %v", d.State())
	}
	// Quiesced devices refuse private frames but accept executive ones.
	if d.Accepts(privateFrame(1)) {
		t.Fatal("quiesced device accepted a private frame")
	}
	e := privateFrame(0)
	e.Function = i2o.ExecSysEnable
	if !d.Accepts(e) {
		t.Fatal("quiesced device refused ExecSysEnable")
	}
	if err := dispatch(d, e); err != nil {
		t.Fatal(err)
	}
	if d.State() != Operational || !d.Accepts(privateFrame(1)) {
		t.Fatalf("state %v after enable", d.State())
	}
	_ = h
}

func TestFaultedAcceptsOnlyExecutive(t *testing.T) {
	d := New("f", 0)
	plugged(t, d)
	d.SetState(Faulted)
	if d.Accepts(privateFrame(1)) {
		t.Fatal("faulted device accepted private frame")
	}
	nop := privateFrame(0)
	nop.Function = i2o.UtilNOP
	if d.Accepts(nop) {
		t.Fatal("faulted device accepted utility frame")
	}
	en := privateFrame(0)
	en.Function = i2o.ExecSysEnable
	if !d.Accepts(en) {
		t.Fatal("faulted device refused executive frame")
	}
}

func TestBindFunctionOverridesDefault(t *testing.T) {
	d := New("o", 0)
	override := false
	d.BindFunction(i2o.UtilNOP, func(ctx *Context, m *i2o.Message) error {
		override = true
		return nil
	})
	plugged(t, d)
	m := privateFrame(0)
	m.Function = i2o.UtilNOP
	if err := dispatch(d, m); err != nil || !override {
		t.Fatalf("override: %v %v", err, override)
	}
}

func TestEventRegisterAndNotify(t *testing.T) {
	d := New("src", 0)
	h := plugged(t, d)
	reg := privateFrame(0)
	reg.Function = i2o.UtilEventRegister
	reg.Initiator = 0x33
	if err := dispatch(d, reg); err != nil {
		t.Fatal(err)
	}
	if subs := d.Subscribers(); len(subs) != 1 || subs[0] != 0x33 {
		t.Fatalf("subscribers %v", subs)
	}
	h.sent = nil
	if err := d.Notify(0x42, i2o.PriorityHigh, []byte("evt")); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("notify sent %d", len(h.sent))
	}
	evt := h.sent[0]
	if evt.Target != 0x33 || evt.XFunction != 0x42 || evt.Priority != i2o.PriorityHigh || string(evt.Payload) != "evt" {
		t.Fatalf("event %v", evt)
	}
}

func TestPluggedLifecycle(t *testing.T) {
	d := New("life", 0)
	var pluggedCalled, unpluggedCalled bool
	d.OnPlugged = func(ctx *Context) error {
		pluggedCalled = true
		if ctx.Self != d || ctx.Host == nil {
			t.Error("bad context")
		}
		return nil
	}
	d.OnUnplugged = func() { unpluggedCalled = true }
	h := newFakeHost()
	if err := d.Plugged(h, 0x55); err != nil {
		t.Fatal(err)
	}
	if !pluggedCalled || d.TID() != 0x55 {
		t.Fatalf("plugged=%v tid=%v", pluggedCalled, d.TID())
	}
	if param(d, "tid") != int64(0x55) {
		t.Fatal("tid param not published")
	}
	d.Unplugged()
	if !unpluggedCalled || d.TID() != i2o.TIDNone {
		t.Fatalf("unplugged=%v tid=%v", unpluggedCalled, d.TID())
	}
	if _, err := d.Ctx(); !errors.Is(err, ErrNotPlugged) {
		t.Fatal("ctx survives unplug")
	}
}

func TestOnPluggedError(t *testing.T) {
	d := New("bad", 0)
	boom := errors.New("boom")
	d.OnPlugged = func(*Context) error { return boom }
	if err := d.Plugged(newFakeHost(), 0x1); !errors.Is(err, boom) {
		t.Fatalf("OnPlugged error: %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for s := Ready; s <= Faulted; s++ {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	if State(42).String() == "" {
		t.Fatal("unknown state name")
	}
	d := New("str", 3)
	if d.String() == "" {
		t.Fatal("device string")
	}
}
