package executive

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestParallelDispatchersSerializePerDevice floods N>1 dispatch workers
// with frames for several devices; every handler checks that it is never
// entered concurrently for its device and that frames arrive in FIFO
// order.  This is the I2O discipline the scheduler's exclusive checkout
// must uphold when the single loop of control becomes many.
func TestParallelDispatchersSerializePerDevice(t *testing.T) {
	opts := quietOpts("par", 1)
	opts.Dispatchers = 4
	e := New(opts)
	t.Cleanup(e.Close)

	const devices, perDevice = 6, 300
	var violations atomic.Int32
	var handled atomic.Int32
	entered := make([]atomic.Int32, devices)
	lastSeq := make([]uint32, devices)
	ids := make([]i2o.TID, devices)
	for i := 0; i < devices; i++ {
		i := i
		d := device.New("count", i)
		d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
			if entered[i].Add(1) != 1 {
				violations.Add(1)
			}
			if seq := m.TransactionContext; seq != lastSeq[i]+1 {
				violations.Add(1) // safe: checkout serializes this handler
			} else {
				lastSeq[i] = seq
			}
			if m.TransactionContext%61 == 0 {
				time.Sleep(time.Microsecond)
			}
			entered[i].Add(-1)
			handled.Add(1)
			return nil
		})
		id, err := e.Plug(d)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := uint32(1); seq <= perDevice; seq++ {
				m := &i2o.Message{
					Priority: i2o.PriorityNormal, Target: ids[i],
					Initiator: i2o.TIDExecutive, Function: i2o.FuncPrivate,
					Org: i2o.OrgXDAQ, XFunction: 1, TransactionContext: seq,
				}
				if err := e.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool {
		return handled.Load() == devices*perDevice
	}, "all frames dispatched")
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d per-device serialization/FIFO violations", v)
	}
}

// TestParallelSlowDeviceDoesNotDelayOthers pins one device's handler and
// checks a second device still answers while the first is stuck — the
// whole point of spending more than one dispatcher.
func TestParallelSlowDeviceDoesNotDelayOthers(t *testing.T) {
	opts := quietOpts("par", 1)
	opts.Dispatchers = 2
	e := New(opts)
	t.Cleanup(e.Close)

	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unblock the handler before e.Close
	stuck := device.New("stuck", 0)
	stuck.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		<-release
		return nil
	})
	stuckID, err := e.Plug(stuck)
	if err != nil {
		t.Fatal(err)
	}
	echoID, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Send(&i2o.Message{
		Priority: i2o.PriorityNormal, Target: stuckID,
		Initiator: i2o.TIDExecutive, Function: i2o.FuncPrivate,
		Org: i2o.OrgXDAQ, XFunction: 1,
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		rep, err := requestWithin(e, &i2o.Message{
			Priority: i2o.PriorityNormal, Target: echoID,
			Initiator: i2o.TIDExecutive, Function: i2o.FuncPrivate,
			Org: i2o.OrgXDAQ, XFunction: 1, Payload: []byte("hi"),
		}, 2*time.Second)
		if err == nil {
			rep.Recycle()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("echo while peer device stuck: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("echo request blocked behind the stuck device")
	}
}

// TestSetDispatchersRuntime scales the worker pool up and down on a live
// executive and checks dispatch keeps working and the live count
// converges.
func TestSetDispatchersRuntime(t *testing.T) {
	e := newExec(t, "scale", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		t.Helper()
		rep, err := e.Request(&i2o.Message{
			Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: []byte("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Recycle()
	}

	call()
	e.SetDispatchers(4)
	if got := e.Dispatchers(); got != 4 {
		t.Fatalf("Dispatchers() = %d, want 4", got)
	}
	waitFor(t, 2*time.Second, func() bool { return e.dispLive.Load() == 4 }, "4 live workers")
	for i := 0; i < 20; i++ {
		call()
	}
	e.SetDispatchers(1)
	waitFor(t, 2*time.Second, func() bool { return e.dispLive.Load() == 1 }, "surplus workers retired")
	for i := 0; i < 20; i++ {
		call()
	}
	e.SetDispatchers(0) // clamps to 1
	if got := e.Dispatchers(); got != 1 {
		t.Fatalf("Dispatchers() after clamp = %d, want 1", got)
	}
}

// TestPendingSlotLateReplyGuard is the satellite-1 regression test: a
// request times out, its recycled pending slot is picked up by a second
// request, and then the first request's reply finally arrives.  The stale
// reply must be dropped — never delivered into the reused slot.
func TestPendingSlotLateReplyGuard(t *testing.T) {
	e := newExec(t, "slots", 1)
	ctxs := make(chan uint32, 8)
	sink := device.New("sink", 0)
	sink.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		ctxs <- m.InitiatorContext // swallow the request, never reply
		return nil
	})
	id, err := e.Plug(sink)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *i2o.Message {
		return &i2o.Message{
			Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		}
	}

	// Request 1 times out; its slot returns to the pool.
	if _, err := requestWithin(e, mk(), 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("request 1: %v", err)
	}
	staleCtx := <-ctxs

	// Request 2 registers (very likely reusing the recycled slot).
	res := make(chan error, 1)
	go func() {
		_, err := requestWithin(e, mk(), 400*time.Millisecond)
		res <- err
	}()
	<-ctxs // request 2 reached the sink, so its pending slot is registered

	// The stale reply lands now.  It must be dropped, not delivered.
	stale := &i2o.Message{
		Flags: i2o.FlagReply, Priority: i2o.PriorityNormal,
		Target: i2o.TIDExecutive, Initiator: id,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		InitiatorContext: staleCtx, Payload: []byte("stale"),
	}
	before := e.Stats().Dropped
	if err := e.Inject(stale); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e.Stats().Dropped > before }, "stale reply dropped")

	if err := <-res; !errors.Is(err, ErrTimeout) {
		t.Fatalf("request 2 got %v, want its own timeout (stale reply must not complete it)", err)
	}
}

// TestWatchdogRunnerReuse shows the shared watchdog machinery reuses one
// runner goroutine across dispatches instead of spawning per frame, and
// that an overrun still faults the device and frees a fresh runner for the
// frames after it.
func TestWatchdogRunnerReuse(t *testing.T) {
	opts := quietOpts("wd", 1)
	opts.Watchdog = 50 * time.Millisecond
	e := New(opts)
	t.Cleanup(e.Close)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rep, err := e.Request(&i2o.Message{
			Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Recycle()
	}
	e.runners.mu.Lock()
	idle := len(e.runners.free)
	e.runners.mu.Unlock()
	if idle != 1 {
		t.Fatalf("runner pool idle = %d after sequential dispatches, want 1 reused runner", idle)
	}

	// An overrunning handler strands its runner; the device faults and the
	// initiator sees FailAborted.
	block := make(chan struct{})
	var unblock sync.Once
	t.Cleanup(func() { unblock.Do(func() { close(block) }) })
	slow := device.New("slow", 0)
	slow.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		<-block
		return nil
	})
	slowID, err := e.Plug(slow)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Request(&i2o.Message{
		Priority: i2o.PriorityNormal, Target: slowID, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	})
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailAborted {
		t.Fatalf("watchdog overrun: %v", err)
	}
	if slow.State() != device.Faulted {
		t.Fatalf("slow device state %v, want Faulted", slow.State())
	}
	unblock.Do(func() { close(block) }) // let the stranded runner finish and be reaped

	// Dispatch keeps working after the abort.
	rep, err := e.Request(&i2o.Message{
		Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("after"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Recycle()
}

// TestDispatchBatchKeepsPriorityOrder runs a single dispatcher with a
// large explicit batch and checks urgent frames still overtake bulk ones
// between batches.
func TestDispatchBatchKeepsPriorityOrder(t *testing.T) {
	opts := quietOpts("batch", 1)
	opts.DispatchBatch = 8
	e := New(opts)
	t.Cleanup(e.Close)

	var mu sync.Mutex
	var order []i2o.Priority
	gate := make(chan struct{})
	d := device.New("order", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		<-gate
		mu.Lock()
		order = append(order, m.Priority)
		mu.Unlock()
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		prio := i2o.PriorityBulk
		if i%2 == 1 {
			prio = i2o.PriorityUrgent
		}
		if err := e.Send(&i2o.Message{
			Priority: prio, Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == n
	}, "all frames handled")
	// The dispatcher may have grabbed the very first (bulk) frame before the
	// urgent backlog was pushed; from the second observation on, every
	// urgent frame must precede every bulk one.
	sawBulk := false
	for _, p := range order[1:] {
		if p == i2o.PriorityBulk {
			sawBulk = true
		} else if sawBulk {
			t.Fatalf("priority inversion across batches: order %v", order)
		}
	}
}

// TestRecycledFramePreservesLiteralCallers verifies a frame built as a
// plain literal (every pre-existing caller) is untouched by the
// dispatcher's Recycle — only pool-acquired frames are scrubbed.
func TestRecycledFramePreservesLiteralCallers(t *testing.T) {
	e := newExec(t, "lit", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	m := &i2o.Message{
		Priority: i2o.PriorityNormal, Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	if err := e.Send(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e.Stats().Dispatched > 0 }, "dispatch")
	if m.Target != id || m.XFunction != 1 {
		t.Fatalf("literal frame scrubbed after dispatch: %+v", m)
	}
}
